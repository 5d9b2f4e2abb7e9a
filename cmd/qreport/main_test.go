package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/simclock"
)

// runCLI runs qreport in process on args.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = cli.Qreport(args, &out, &errb)
	return out.String(), errb.String(), code
}

// writeDecisions builds a tiny two-tick decision log on disk.
func writeDecisions(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dw, err := decisionlog.NewWriter(f, decisionlog.Meta{
		Experiment: "cli-test", Seed: 1, ControlInterval: 60, SLOWindow: 10, SLOBudget: 0.1,
		Classes: []decisionlog.ClassMeta{
			{ID: 1, Name: "Class1", Kind: "OLAP", Metric: "velocity", Target: 0.4, Importance: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range []float64{60, 120} {
		dw.Note(core.PlanRecord{
			Time: simclock.Time(tick),
			Measurement: core.Measurement{
				Classes: []core.ClassMeasurement{{ID: 1, Managed: true, Velocity: 0.5, VelocitySamples: 5}},
			},
			Classes: []core.ClassPlan{{ID: 1, Limit: 20000}},
		})
	}
	dw.Flush()
	if dw.Err() != nil {
		t.Fatal(dw.Err())
	}
	return path
}

// A -window (or -why tick=) range past the log's last tick is a usage
// mistake: qreport must exit 2 with a clear error, not print a silently
// empty timeline.
func TestWindowPastLastTickExits2(t *testing.T) {
	log := writeDecisions(t) // 2 ticks
	for _, args := range [][]string{
		{"-timeline", "-window", "3-99", log},
		{"-timeline", "-window", "99", log},
		{"-why", "class=A tick=3-99", log},
	} {
		_, stderr, code := runCLI(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
		if !strings.Contains(stderr, "out of range") && !strings.Contains(stderr, "past last tick") {
			t.Errorf("%v: stderr lacks range error: %q", args, stderr)
		}
	}
}

func TestInRangeWindowSucceeds(t *testing.T) {
	log := writeDecisions(t)
	stdout, stderr, code := runCLI(t, "-timeline", "-window", "1-2", log)
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "tick    1") || !strings.Contains(stdout, "tick    2") {
		t.Fatalf("timeline missing ticks:\n%s", stdout)
	}
}

func TestMissingLogExits1(t *testing.T) {
	_, _, code := runCLI(t, filepath.Join(t.TempDir(), "nope.jsonl"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
