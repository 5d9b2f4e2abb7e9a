package decisionlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// seedLines is how many lines after the meta line each golden log
// contributes to the seed corpus, one seed per line.
const seedLines = 6

// FuzzScanJSONL asserts the decision-log reader's contract on arbitrary
// input: ScanJSONLWithFleet returns an error or reads one meta line and
// well-formed decision and fleet records, never a panic. What reads
// cleanly must survive the writer's encoding: marshalled back out and
// scanned again, every line comes back with the same encoding.
func FuzzScanJSONL(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "experiment", "testdata", "golden", "*_decisions.jsonl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden decision logs to seed from (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		meta := lines[0]
		f.Add(meta)
		for _, line := range lines[1:min(len(lines), 1+seedLines)] {
			f.Add(append(append([]byte{}, meta...), line...))
		}
		// A fleet log's first fleet event, if any.
		for _, line := range lines[1:] {
			if bytes.Contains(line, []byte(`"type":"fleet"`)) {
				f.Add(append(append([]byte{}, meta...), line...))
				break
			}
		}
	}
	f.Add([]byte(`{"type":"decision","tick":1}` + "\n"))              // record before meta
	f.Add([]byte(`{"type":"meta","version":99,"classes":[]}` + "\n")) // future version
	f.Add([]byte(`{"type":"meta","version":1}` + "\n" + `{"type":"mystery"}` + "\n"))
	f.Add([]byte(`{"type":"meta"`)) // truncated JSON

	f.Fuzz(func(t *testing.T, data []byte) {
		lines, metas := scanEncoded(data)
		if lines == nil {
			return
		}
		if metas != 1 {
			t.Fatalf("clean scan saw %d meta lines", metas)
		}
		again, metas := scanEncoded(bytes.Join(lines, []byte("\n")))
		if again == nil || metas != 1 {
			t.Fatalf("re-scan of accepted records failed (%d meta lines)", metas)
		}
		if len(again) != len(lines) {
			t.Fatalf("re-scan read %d lines, first scan %d", len(again), len(lines))
		}
		for i := range lines {
			if !bytes.Equal(again[i], lines[i]) {
				t.Fatalf("line %d changed on re-scan:\n got %s\nwant %s", i, again[i], lines[i])
			}
		}
	})
}

// scanEncoded scans a log and returns every accepted line re-encoded,
// meta first, in file order, with the number of meta callbacks; nil
// when the scan fails.
func scanEncoded(data []byte) ([][]byte, int) {
	var out [][]byte
	metas := 0
	add := func(v any) error {
		line, err := json.Marshal(v)
		out = append(out, line)
		return err
	}
	err := ScanJSONLWithFleet(bytes.NewReader(data),
		func(m Meta) error { metas++; return add(m) },
		func(r Record) error { return add(r) },
		func(fr FleetRecord) error { return add(fr) })
	if err != nil {
		return nil, metas
	}
	return out, metas
}
