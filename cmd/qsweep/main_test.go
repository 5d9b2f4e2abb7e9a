package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the CLI: with QSWEEP_MAIN=1
// the process runs main() on its own arguments, so tests can assert the
// real exit codes the shell would see.
func TestMain(m *testing.M) {
	if os.Getenv("QSWEEP_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QSWEEP_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
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
		{"no backends", []string{"-param", "plan-step", "-values", "500", "-backends", "0"},
			"-backends must be at least 1\n"},
		{"checkpoints without a directory", []string{"-param", "plan-step", "-values", "500", "-checkpoint-every", "5"},
			"-checkpoint-every/-resume require -checkpoint-dir\n"},
		{"crash both backends", []string{"-param", "plan-step", "-values", "500", "-backends", "2", "-faults", crashBoth},
			"fault: backend crashes leave no backend up at t=450 (2 of 2 down)\n"},
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
