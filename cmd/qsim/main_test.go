package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary impersonate the CLI: with QSIM_MAIN=1
// the process runs main() on its own arguments, so tests can assert the
// real exit codes the shell would see.
func TestMain(m *testing.M) {
	if os.Getenv("QSIM_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QSIM_MAIN=1")
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
// any simulation runs. A fault plan whose crash windows leave no backend
// up is one of them: the router would have nowhere to send arrivals.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	plan := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	crashOne := plan("crash-1.json", `{"backend_crashes": [{"backend": 1, "at": 450}]}`)
	crashBoth := plan("crash-both.json", `{"backend_crashes": [{"backend": 1, "at": 450}, {"backend": 2, "at": 450}]}`)
	outOfRoster := plan("crash-3.json", `{"backend_crashes": [{"backend": 3, "at": 450}]}`)
	scenario := plan("scenario.json", `{"mode": "qp-priority", "period_minutes": 5,
		"classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1}],
		"periods": [[2]], "backends": [{"name": "x"}, {"name": "y"}]}`)
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"crash the only backend", []string{"-exp", "fig6", "-faults", crashOne},
			"fault: backend crashes leave no backend up at t=450 (1 of 1 down)\n"},
		{"crash both backends", []string{"-exp", "fig6", "-backends", "2", "-faults", crashBoth},
			"fault: backend crashes leave no backend up at t=450 (2 of 2 down)\n"},
		{"crash outside the roster", []string{"-exp", "fig6", "-backends", "2", "-faults", outOfRoster},
			"fault: plan targets backend 3 of a 2-backend roster\n"},
		{"crash a scenario's whole roster", []string{"-scenario", scenario, "-faults", crashBoth},
			"fault: backend crashes leave no backend up at t=450 (2 of 2 down)\n"},
		{"backends on a sweep", []string{"-exp", "syslimit", "-backends", "2"},
			"-backends applies to -exp fig4|fig5|fig6|fig7 (use -exp routing for the heterogeneous E14 fleet)\n"},
		{"decisions without a scheduler", []string{"-exp", "fig4", "-decisions", filepath.Join(dir, "d.jsonl")},
			"-decisions applies to a single Query Scheduler run: -exp fig6|fig7|infeasible or a query-scheduler -scenario\n"},
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
