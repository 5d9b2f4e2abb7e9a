package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// runCLI runs qsweep in process on args.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = cli.Qsweep(args, &out, &errb)
	return out.String(), errb.String(), code
}

// Usage errors exit 2 with a one-line message and no output, before
// any simulation runs — a swept value the scheduler would reject
// included.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	crashBoth := filepath.Join(dir, "crash-both.json")
	if err := os.WriteFile(crashBoth, []byte(`{"backend_crashes": [{"backend": 1, "at": 450}, {"backend": 2, "at": 450}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badRate := filepath.Join(dir, "bad-rate.json")
	if err := os.WriteFile(badRate, []byte(`{"abort_rate": {"1": 1.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown param", []string{"-param", "bogus", "-values", "1"},
			`unknown -param "bogus"; choose one of: control-interval, min-olap-limit, oltp-window, plan-step, snapshot-interval, system-cost-limit` + "\n"},
		{"bad value", []string{"-param", "plan-step", "-values", "500,x"},
			`bad value "x": strconv.ParseFloat: parsing "x": invalid syntax` + "\n"},
		{"empty values", []string{"-param", "plan-step", "-values", " , "},
			"no -values given\n"},
		{"value the setter rejects", []string{"-param", "oltp-window", "-values", "5,1.5"},
			"oltp-window must be an integer >= 2\n"},
		{"value the scheduler rejects", []string{"-param", "plan-step", "-values", "500,0"},
			"core: plan step 0 out of range\n"},
		{"window the OLTP model can never fit", []string{"-param", "oltp-window", "-values", "16,3"},
			"perfmodel: OLTP MinPoints 4 exceeds the window 3, so the slope would never be fitted\n"},
		{"no backends", []string{"-param", "plan-step", "-values", "500", "-backends", "0"},
			"-backends must be at least 1\n"},
		{"checkpoints without a directory", []string{"-param", "plan-step", "-values", "500", "-checkpoint-every", "5"},
			"-checkpoint-every/-resume require -checkpoint-dir\n"},
		{"crash both backends", []string{"-param", "plan-step", "-values", "500", "-backends", "2", "-faults", crashBoth},
			"fault: backend crashes leave no backend up at t=450 (2 of 2 down)\n"},
		{"fault plan that does not validate", []string{"-param", "plan-step", "-values", "500", "-faults", badRate},
			"fault: abort rate 1.5 for class 1 out of [0, 1]\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if stderr != tc.stderr {
				t.Errorf("stderr %q, want %q", stderr, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("stdout %q, want none", stdout)
			}
		})
	}
}

// Rows print in value order with identical numbers for any worker count.
func TestParallelRowsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("four full-schedule runs; run without -short")
	}
	t.Parallel()
	sweep := func(parallel string) string {
		stdout, stderr, code := runCLI(t, "-param", "control-interval", "-values", "300,600", "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", parallel, code, stderr)
		}
		return stdout
	}
	serial, fanned := sweep("1"), sweep("2")
	if serial != fanned {
		t.Fatalf("-parallel 1 and -parallel 2 disagree:\n%s\nvs\n%s", serial, fanned)
	}
	if rows := strings.Count(serial, "\n"); rows != 5 {
		t.Fatalf("%d output lines, want a header, a blank, a column row and 2 value rows:\n%s", rows, serial)
	}
}

// A resumed value whose checkpoint carries a config Validate rejects is
// bad input: the sweep exits 2 with the message instead of panicking.
func TestResumeInvalidConfigExits2(t *testing.T) {
	dir := t.TempDir()
	head := struct {
		Config experiment.MixedConfig
		Index  int
	}{experiment.MixedConfig{Mode: experiment.QueryScheduler, Sched: workload.Schedule{PeriodSeconds: 60}}, 1}
	if err := checkpoint.Write(filepath.Join(dir, "plan-step-500"), 1, head); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := runCLI(t, "-param", "plan-step", "-values", "500", "-checkpoint-dir", dir, "-resume")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "plan-step=500: experiment: empty schedule\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}
