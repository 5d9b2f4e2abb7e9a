package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// emitN streams a meta line and n submit events through a sink.
func emitN(t *testing.T, s *Sink, n int) {
	t.Helper()
	tr := New()
	if err := tr.StreamJSONL(s, Meta{Experiment: "sink-test", Periods: 1, PeriodSeconds: 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tr.Emit(Event{
			Time:  float64(i),
			Kind:  QuerySubmit,
			Class: 1,
			Query: engine.QueryID(i + 1),
			Value: 100,
		})
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGzipSinkRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	s, err := OpenSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Gzipped() || s.Rotating() {
		t.Fatalf("gzipped=%v rotating=%v", s.Gzipped(), s.Rotating())
	}
	emitN(t, s, 25)

	// ScanJSONL must sniff the gzip magic and decompress transparently.
	meta, events := scanFile(t, path)
	if meta.Experiment != "sink-test" || len(events) != 25 {
		t.Fatalf("meta=%q events=%d", meta.Experiment, len(events))
	}
}

// scanFile reads a trace file (or segment) back through ScanJSONL.
func scanFile(t *testing.T, path string) (Meta, []Event) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return scanEvents(t, raw)
}

// rotatedSegments counts the rotated segments path.1, path.2, ... on disk.
func rotatedSegments(path string) int {
	n := 0
	for {
		if _, err := os.Stat(fmt.Sprintf("%s.%d", path, n+1)); err != nil {
			return n
		}
		n++
	}
}

func TestRotatingSinkSegmentsAreIndependentlyParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	// ~120-byte lines against a 1 KiB threshold forces several rotations.
	s, err := OpenSink(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, s, 60)
	rotations := rotatedSegments(path)
	if rotations == 0 {
		t.Fatal("sink never rotated")
	}

	// Every segment — rotated and current — must start with the meta line
	// and parse on its own; together they carry all 60 events exactly once.
	total := 0
	for i := 0; i <= rotations; i++ {
		seg := path
		if i < rotations {
			seg = fmt.Sprintf("%s.%d", path, i+1)
		}
		meta, events := scanFile(t, seg)
		if meta.Experiment != "sink-test" {
			t.Fatalf("segment %s missing replayed meta", seg)
		}
		total += len(events)
	}
	if total != 60 {
		t.Fatalf("segments carry %d events, want 60", total)
	}
}

func TestSinkCloseIdempotentAndWriteAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := OpenSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, err := s.Write([]byte("{}\n")); err == nil {
		t.Fatal("write to closed sink succeeded")
	}
}

func TestOpenSinkRejectsNegativeRotation(t *testing.T) {
	if _, err := OpenSink(filepath.Join(t.TempDir(), "x.jsonl"), -1); err == nil {
		t.Fatal("negative rotation threshold accepted")
	}
}

// tracedLines returns the lines a tracer writes for a meta line and n
// events of mixed kinds and lengths, meta line first.
func tracedLines(t *testing.T, n int) [][]byte {
	t.Helper()
	tr, buf := streamed(t)
	for i := 0; i < n; i++ {
		e := Event{Time: float64(i) / 8, Kind: Kind(i % 4), Class: 1, Query: engine.QueryID(i/3 + 1), Value: 100}
		switch e.Kind {
		case QuerySubmit, QueryStart:
			e.Detail = fmt.Sprintf("Q%d", i%23)
		case QueryDone:
			e.Num = [2]float64{float64(i) * 0.37, float64(i) * 0.11}
		}
		tr.Emit(e)
	}
	tr.Flush()
	return bytes.SplitAfter(buf.Bytes(), []byte("\n"))[:n+1]
}

// writeSegments writes lines through a fresh sink at path — the meta
// line alone, then the rest in writes of batch lines each — and returns
// every segment's bytes, oldest first.
func writeSegments(t *testing.T, path string, rotate int64, lines [][]byte, batch int) [][]byte {
	t.Helper()
	s, err := OpenSink(path, rotate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(lines[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(lines); i += batch {
		var p []byte
		for _, l := range lines[i:min(i+batch, len(lines))] {
			p = append(p, l...)
		}
		if n, err := s.Write(p); err != nil || n != len(p) {
			t.Fatalf("Write = %d, %v; want %d", n, err, len(p))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	for i := 1; i <= rotatedSegments(path); i++ {
		raw, err := os.ReadFile(fmt.Sprintf("%s.%d", path, i))
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, raw)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return append(segs, raw)
}

// TestRotatingSinkBatchWritesMatchLineWrites: a sink given whole
// batches in one Write each must leave the same files as one Write per
// line — same segment count, same meta replay, same bytes — for rotation
// thresholds below a line, below a batch and above the whole trace,
// plain and gzipped.
func TestRotatingSinkBatchWritesMatchLineWrites(t *testing.T) {
	lines := tracedLines(t, 3*traceBatchSize)
	for _, name := range []string{"run.jsonl", "run.jsonl.gz"} {
		for _, rotate := range []int64{0, 50, 1000, 4096, 1 << 30} {
			in := lines
			if rotate == 50 {
				// Below a line, every line opens its own segment file:
				// 40 lines still span six batch-7 writes, the last
				// one partial, at a twentieth of the file churn.
				in = lines[:40]
			}
			dir := t.TempDir()
			want := writeSegments(t, filepath.Join(dir, "lines-"+name), rotate, in, 1)
			if rotate == 50 && len(want) != len(in) {
				t.Fatalf("%s rotate %d: %d segments, want one per line (%d)", name, rotate, len(want), len(in))
			}
			for _, batch := range []int{7, traceBatchSize, len(in)} {
				got := writeSegments(t, filepath.Join(dir, fmt.Sprintf("batch%d-%s", batch, name)), rotate, in, batch)
				if len(got) != len(want) {
					t.Fatalf("%s rotate %d batch %d: %d segments, want %d", name, rotate, batch, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s rotate %d batch %d: segment %d differs from line-at-a-time writes", name, rotate, batch, i)
					}
				}
			}
		}
	}
}
