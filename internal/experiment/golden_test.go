// Byte-identity goldens for the hot-path overhaul: the files under
// testdata/golden were captured from the pre-optimization seed code, so
// any allocation work (query freelists, dense per-class slices, batched
// trace dispatch, the streaming client generator) that perturbs a table,
// the metrics exposition, or a single JSONL trace byte fails here. Each
// artifact is additionally produced under the parallel runner, extending
// the guarantee to -parallel 8 sweeps.
//
// Regenerate with: go test ./internal/experiment -run Golden -update-golden
// (only legitimate when an intentional output-format change lands).
package experiment

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decisionlog"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden files from this build's output")

// goldenCompare checks got against the named golden file, reporting the
// first diverging byte with context.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s unreadable (regenerate with -update-golden): %v", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	window := func(b []byte) []byte {
		lo, hi := i-60, i+60
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return b[lo:hi]
	}
	t.Errorf("%s deviates from the seed output at byte %d (got %d bytes, want %d)\n got: %q\nwant: %q",
		name, i, len(got), len(want), window(got), window(want))
}

// goldenTraceDigest pins a multi-megabyte JSONL trace without committing
// it: total length, SHA-256 of the whole stream, and the first 64 KiB
// verbatim (so head divergences still show in context). Equality of the
// digest is byte-identity of the trace.
func goldenTraceDigest(trace []byte) []byte {
	head := trace
	if len(head) > 64*1024 {
		head = head[:64*1024]
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "bytes=%d sha256=%x\n", len(trace), sha256.Sum256(trace))
	b.Write(head)
	return b.Bytes()
}

// mixedGoldenArtifacts runs one mixed experiment with trace and metrics
// capture and renders the period tables. Query-scheduler runs also
// export the control plane's decision log (other modes have no control
// ticks to record).
func mixedGoldenArtifacts(t *testing.T, cfg MixedConfig) (trace, metrics, tables, decisions []byte) {
	t.Helper()
	var tb, mb, db bytes.Buffer
	cfg.Trace = &tb
	cfg.Metrics = &mb
	if cfg.Mode == QueryScheduler {
		cfg.Decisions = &db
	}
	res := RunMixed(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	return tb.Bytes(), mb.Bytes(), []byte(mixedTables(res)), db.Bytes()
}

// qreportRender runs the qreport views (summary, timeline, one -why
// query) over a decision log, so the operator-facing rendering is pinned
// alongside the log bytes themselves.
func qreportRender(t *testing.T, decisions []byte) []byte {
	t.Helper()
	var qb bytes.Buffer
	if err := decisionlog.Summarize(&qb, bytes.NewReader(decisions)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&qb)
	if err := decisionlog.Timeline(&qb, bytes.NewReader(decisions), decisionlog.TickRange{}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&qb)
	if err := decisionlog.Why(&qb, bytes.NewReader(decisions), "class=A", decisionlog.TickRange{}); err != nil {
		t.Fatal(err)
	}
	return qb.Bytes()
}

// TestGoldenMixedQuick pins the full observability surface of a mixed run
// — JSONL trace, metrics exposition, period tables — for the controller
// modes with distinct hot paths, against seed-path captures.
func TestGoldenMixedQuick(t *testing.T) {
	for _, mode := range []Mode{NoControl, QueryScheduler} {
		cfg := MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1, Experiment: "golden"}
		trace, metrics, tables, decisions := mixedGoldenArtifacts(t, cfg)
		prefix := strings.ReplaceAll(mode.String(), "-", "_")
		goldenCompare(t, prefix+"_trace.digest", goldenTraceDigest(trace))
		goldenCompare(t, prefix+"_metrics.txt", metrics)
		goldenCompare(t, prefix+"_tables.txt", tables)
		if mode == QueryScheduler {
			goldenCompare(t, prefix+"_decisions.jsonl", decisions)
			goldenCompare(t, prefix+"_qreport.txt", qreportRender(t, decisions))
		}
	}
}

// TestGoldenMixedQuickParallel reruns the golden mixed runs on the
// 8-worker pool: per-run isolation must hold for the optimized path too.
func TestGoldenMixedQuickParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel golden sweep is slow under -race")
	}
	modes := []Mode{NoControl, QueryScheduler}
	type artifacts struct{ trace, metrics, tables, decisions []byte }
	outs := Map(8, modes, func(mode Mode, _ int) artifacts {
		var tb, mb, db bytes.Buffer
		cfg := MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1,
			Experiment: "golden", Trace: &tb, Metrics: &mb}
		if mode == QueryScheduler {
			cfg.Decisions = &db
		}
		res := RunMixed(cfg)
		if res.ExportErr != nil {
			t.Error(res.ExportErr)
		}
		return artifacts{tb.Bytes(), mb.Bytes(), []byte(mixedTables(res)), db.Bytes()}
	})
	for i, mode := range modes {
		prefix := strings.ReplaceAll(mode.String(), "-", "_")
		goldenCompare(t, prefix+"_trace.digest", goldenTraceDigest(outs[i].trace))
		goldenCompare(t, prefix+"_metrics.txt", outs[i].metrics)
		goldenCompare(t, prefix+"_tables.txt", outs[i].tables)
		if mode == QueryScheduler {
			goldenCompare(t, prefix+"_decisions.jsonl", outs[i].decisions)
		}
	}
}

// TestGoldenFig2Quick pins a scaled-down Figure 2 sweep, serially and on
// the worker pool.
func TestGoldenFig2Quick(t *testing.T) {
	cfg := Fig2Config{
		Pairs:  [][2]int{{10, 2}, {20, 4}},
		Limits: []float64{5000, 15000, 25000},
		Window: 600,
		Seed:   2,
	}
	cfg.Parallel = 1
	serial := RunFig2(cfg)
	var table bytes.Buffer
	WriteFig2(&table, serial)
	goldenCompare(t, "fig2_quick.csv", []byte(Fig2CSV(serial)))
	goldenCompare(t, "fig2_quick_table.txt", table.Bytes())

	cfg.Parallel = 8
	if got := Fig2CSV(RunFig2(cfg)); got != Fig2CSV(serial) {
		t.Error("fig2 quick sweep diverges between -parallel 1 and -parallel 8")
	}
}

// TestGoldenFaultMatrixQuick pins the CI-sized fault matrix — the run
// shape with aborts, retries, misestimation, and degraded control ticks —
// serially and on the worker pool.
func TestGoldenFaultMatrixQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix is slow under -race")
	}
	cfg := QuickFaultMatrixConfig()
	cfg.Parallel = 1
	serial := RunFaultMatrix(cfg)
	var table bytes.Buffer
	WriteFaultMatrix(&table, serial)
	goldenCompare(t, "faultmatrix_quick.csv", []byte(FaultMatrixCSV(serial)))
	goldenCompare(t, "faultmatrix_quick_table.txt", table.Bytes())

	cfg.Parallel = 8
	if got := FaultMatrixCSV(RunFaultMatrix(cfg)); got != FaultMatrixCSV(serial) {
		t.Error("fault matrix diverges between -parallel 1 and -parallel 8")
	}
}

// TestGoldenStreamingPoolMatchesEager is the streaming-generator identity
// property: a pool that materializes clients lazily from recorded
// generator cursors must reproduce the eager pool's runs byte for byte.
// (The golden files above pin the eager path; transitivity extends the
// guarantee to the seed output.)
func TestGoldenStreamingPoolMatchesEager(t *testing.T) {
	for _, mode := range []Mode{NoControl, QueryScheduler} {
		cfg := MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1, Experiment: "golden"}
		eagerTrace, eagerMetrics, eagerTables, eagerDecisions := mixedGoldenArtifacts(t, cfg)
		cfg.StreamingClients = true
		lazyTrace, lazyMetrics, lazyTables, lazyDecisions := mixedGoldenArtifacts(t, cfg)
		if !bytes.Equal(eagerTrace, lazyTrace) {
			t.Errorf("%v: streaming pool perturbs the JSONL trace", mode)
		}
		if !bytes.Equal(eagerMetrics, lazyMetrics) {
			t.Errorf("%v: streaming pool perturbs the metrics exposition", mode)
		}
		if !bytes.Equal(eagerTables, lazyTables) {
			t.Errorf("%v: streaming pool perturbs the period tables", mode)
		}
		if !bytes.Equal(eagerDecisions, lazyDecisions) {
			t.Errorf("%v: streaming pool perturbs the decision log", mode)
		}
	}
}

// refOutputsWithDecisions mirrors refOutputs with the decision log also
// streamed (buffered) to its own file, returning its final bytes too.
func refOutputsWithDecisions(t *testing.T, cfg MixedConfig, tracePath, decPath string) (tables string, metrics, trace, decisions []byte) {
	t.Helper()
	df, err := os.Create(decPath)
	if err != nil {
		t.Fatal(err)
	}
	dw := bufio.NewWriterSize(df, 1<<20)
	cfg.Decisions = dw
	tables, metrics, trace = refOutputs(t, cfg, tracePath)
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	decisions, err = os.ReadFile(decPath)
	if err != nil {
		t.Fatal(err)
	}
	return tables, metrics, trace, decisions
}

// TestGoldenResumeSurvivesPooling proves checkpoint/resume still works
// over pooled queries, generator cursors, and the decision log: checkpoint
// at every control boundary, resume from each, and demand byte-identity
// with the uninterrupted reference (which itself is pinned transitively
// through the checkpoint-neutrality test against the golden mixed runs).
func TestGoldenResumeSurvivesPooling(t *testing.T) {
	if testing.Short() {
		t.Skip("every-boundary resume sweep is slow under -race")
	}
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	refTrace := filepath.Join(dir, "ref.jsonl")
	refDec := filepath.Join(dir, "ref-decisions.jsonl")
	cfg := ckptTestConfig(ckptDir, 1)
	cfg.StreamingClients = true
	refTables, refMetrics, refTraceBytes, refDecBytes := refOutputsWithDecisions(t, cfg, refTrace, refDec)
	for _, idx := range checkpointIndices(t, ckptDir) {
		tmp := filepath.Join(dir, fmt.Sprintf("resume-%02d.jsonl", idx))
		dmp := filepath.Join(dir, fmt.Sprintf("resume-%02d-decisions.jsonl", idx))
		copyFile(t, refTrace, tmp)
		copyFile(t, refDec, dmp)
		var mb bytes.Buffer
		res, err := ResumeMixed(ResumeOptions{
			Dir: ckptDir, Index: idx, TracePath: tmp, DecisionsPath: dmp, Metrics: &mb,
		})
		if err != nil {
			t.Fatalf("boundary %d: %v", idx, err)
		}
		if got := mixedTables(res); got != refTables {
			t.Errorf("boundary %d: period tables diverged", idx)
		}
		if !bytes.Equal(mb.Bytes(), refMetrics) {
			t.Errorf("boundary %d: metrics exposition diverged", idx)
		}
		tb, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tb, refTraceBytes) {
			t.Errorf("boundary %d: trace file diverged", idx)
		}
		db, err := os.ReadFile(dmp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(db, refDecBytes) {
			t.Errorf("boundary %d: decision log diverged", idx)
		}
	}
}
