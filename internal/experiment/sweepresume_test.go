package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// sweepRow renders a result the way qsweep prints one table row: per-class
// goal satisfaction plus the heavy-period OLTP mean. Byte-identity of the
// merged sweep table reduces to string equality of these rows.
func sweepRow(v float64, res *MixedResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%14g", v)
	for ci := range res.Classes {
		fmt.Fprintf(&sb, " %11.0f%%", 100*res.Satisfaction[ci])
	}
	var heavy float64
	var n int
	for p := 2; p < res.Periods; p += 3 {
		if res.Measurable[len(res.Classes)-1][p] {
			heavy += res.Metric[len(res.Classes)-1][p]
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(&sb, " %14.0f", heavy/float64(n)*1000)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// The qsweep -resume regression: a sweep where one value already completed,
// one was interrupted mid-run, and one never started must, on resume,
// produce a merged table and per-value artifacts byte-identical to an
// uninterrupted sweep — and the completed value must not re-simulate (its
// resume would fail on the re-seeded terminal checkpoint if it did).
func TestSweepResumeSkipsCompletedValues(t *testing.T) {
	const every = 1
	dir := t.TempDir()
	seeds := []uint64{3, 4, 5}

	// Uninterrupted reference sweep: every value runs to completion with
	// checkpointing on, exactly as qsweep -checkpoint-every would.
	refResults := make([]*FleetResult, len(seeds))
	refTables := make([]string, len(seeds))
	refMetrics := make([][]byte, len(seeds))
	refTrace := make([][]byte, len(seeds))
	refRows := make([]string, len(seeds))
	ckptDirs := make([]string, len(seeds))
	tracePaths := make([]string, len(seeds))
	for i, seed := range seeds {
		ckptDirs[i] = filepath.Join(dir, fmt.Sprintf("ckpt-%d", i))
		tracePaths[i] = filepath.Join(dir, fmt.Sprintf("trace-%d.jsonl", i))
		cfg := ckptTestConfig(ckptDirs[i], every)
		cfg.Seed = seed
		var mb bytes.Buffer
		res, err := runToFile(cfg, tracePaths[i], &mb)
		if err != nil {
			t.Fatal(err)
		}
		refResults[i] = res
		refTables[i] = mixedTables(res.MixedResult)
		refMetrics[i] = mb.Bytes()
		refRows[i] = sweepRow(float64(seed), res.MixedResult)
		tb, err := os.ReadFile(tracePaths[i])
		if err != nil {
			t.Fatal(err)
		}
		refTrace[i] = tb
	}

	// A completed checkpointed run must leave a terminal snapshot — the
	// marker, with the stored result, that lets a later -resume skip
	// re-simulation.
	finalIdx := checkpointIndices(t, ckptDirs[0])
	sort.Ints(finalIdx)
	last := finalIdx[len(finalIdx)-1]
	snap := new(runSnapshot)
	if err := checkpoint.Read(filepath.Join(ckptDirs[0], checkpoint.FileName(last)), snap); err != nil {
		t.Fatal(err)
	}
	if snap.Result == nil {
		t.Fatalf("terminal snapshot %d carries no result", last)
	}
	// Re-simulating value 0 must be detectable: give its terminal
	// checkpoint another seed. A replay of that config diverges from the
	// trace file and fails the resume; the stored-result path never
	// simulates, so it never notices.
	snap.Config.Seed++
	if err := checkpoint.Write(ckptDirs[0], last, snap); err != nil {
		t.Fatal(err)
	}

	// Fabricate the interrupted sweep: value 0 completed (state kept as
	// is), value 1 died mid-run (trace truncated to a mid-boundary offset,
	// later checkpoints lost), value 2 never started.
	indices := checkpointIndices(t, ckptDirs[1])
	sort.Ints(indices)
	mid := indices[len(indices)/2]
	if mid == indices[len(indices)-1] {
		t.Fatalf("mid boundary %d is the terminal one; need a longer run", mid)
	}
	midSnap := new(runSnapshot)
	if err := checkpoint.Read(filepath.Join(ckptDirs[1], checkpoint.FileName(mid)), midSnap); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tracePaths[1], midSnap.TraceBytes); err != nil {
		t.Fatal(err)
	}
	for _, idx := range indices {
		if idx > mid {
			if err := os.Remove(filepath.Join(ckptDirs[1], checkpoint.FileName(idx))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.Remove(tracePaths[2]); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(ckptDirs[2]); err != nil {
		t.Fatal(err)
	}

	// The resume pass, value by value, exactly as qsweep decides it:
	// values with a checkpoint resume, the rest run fresh.
	var mergedRef, mergedGot strings.Builder
	for i, seed := range seeds {
		mergedRef.WriteString(refRows[i])
		var res *FleetResult
		var mb bytes.Buffer
		if _, idx, err := CheckpointConfig(ckptDirs[i], nil); err == nil {
			res, err = ResumeFleet(ResumeOptions{
				Dir:             ckptDirs[i],
				Index:           idx,
				TracePath:       tracePaths[i],
				Metrics:         &mb,
				CheckpointEvery: every,
			})
			if err != nil {
				t.Fatalf("value %d: resume: %v", i, err)
			}
		} else {
			cfg := ckptTestConfig(ckptDirs[i], every)
			cfg.Seed = seed
			var err error
			res, err = runToFile(cfg, tracePaths[i], &mb)
			if err != nil {
				t.Fatalf("value %d: fresh run: %v", i, err)
			}
		}
		if res.ExportErr != nil {
			t.Fatalf("value %d: export: %v", i, res.ExportErr)
		}
		mergedGot.WriteString(sweepRow(float64(seed), res.MixedResult))
		if got := mixedTables(res.MixedResult); got != refTables[i] {
			t.Errorf("value %d: period tables diverged from uninterrupted sweep", i)
		}
		// The fleet detail comes back too, the finished value's from
		// its terminal checkpoint.
		ref := refResults[i]
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Specs", res.Specs, ref.Specs},
			{"Routed", res.Routed, ref.Routed},
			{"BackendCompleted", res.BackendCompleted, ref.BackendCompleted},
			{"Feasibility", res.Feasibility, ref.Feasibility},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("value %d: resumed %s is %+v, the uninterrupted run's %+v", i, f.name, f.got, f.want)
			}
		}
		if len(res.Specs) == 0 || len(res.BackendCompleted) == 0 || len(res.Feasibility) == 0 {
			t.Errorf("value %d: resumed result lacks its fleet detail: %+v", i, res)
		}
		if !bytes.Equal(mb.Bytes(), refMetrics[i]) {
			t.Errorf("value %d: metrics exposition diverged from uninterrupted sweep", i)
		}
		tb, err := os.ReadFile(tracePaths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tb, refTrace[i]) {
			t.Errorf("value %d: trace file diverged from uninterrupted sweep", i)
		}
	}
	if mergedGot.String() != mergedRef.String() {
		t.Errorf("merged sweep table diverged:\ngot:\n%swant:\n%s", mergedGot.String(), mergedRef.String())
	}

	// The interrupted value's resume must have restored the terminal
	// marker, so a second -resume pass would skip it too.
	after := checkpointIndices(t, ckptDirs[1])
	sort.Ints(after)
	if after[len(after)-1] != last {
		t.Errorf("resumed value left no terminal snapshot: have %v, want last %d", after, last)
	}
}
