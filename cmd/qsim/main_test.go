package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
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

// checkpointHead is the part of a checkpoint payload that a mid-run
// checkpoint of a run without exports sets; gob matches fields by name,
// so it decodes and re-encodes such a payload unchanged.
type checkpointHead struct {
	Config experiment.MixedConfig
	Index  int
	Digest uint64
}

// keepMiddleCheckpoint deletes every checkpoint in dir above the middle
// one, so -resume picks a mid-run boundary, and returns its index.
func keepMiddleCheckpoint(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil || len(names) < 3 {
		t.Fatalf("checkpoints %v: %v", names, err)
	}
	sort.Strings(names)
	for _, n := range names[len(names)/2+1:] {
		if err := os.Remove(n); err != nil {
			t.Fatal(err)
		}
	}
	var idx int
	if _, err := fmt.Sscanf(filepath.Base(names[len(names)/2]), "ckpt-%d.bin", &idx); err != nil {
		t.Fatal(err)
	}
	return idx
}

// A resume that does not arrive where its checkpoint says the run was
// exits 1 and names what diverged: the first differing byte of an export
// file, or the simulated state.
func TestResumeDivergenceExits1(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(scenario, []byte(`{"mode": "query-scheduler", "period_minutes": 5,
		"classes": [
			{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1},
			{"kind": "oltp", "goal_metric": "response_time", "goal_target": 0.25, "importance": 2}],
		"periods": [[2, 10], [3, 12]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, ck string, extra ...string) {
		t.Helper()
		args := append([]string{"-scenario", scenario, "-checkpoint-every", "1", "-checkpoint-dir", ck}, extra...)
		if _, stderr, code := runCLI(t, args...); code != 0 {
			t.Fatalf("checkpointed run exit %d: %s", code, stderr)
		}
	}
	expectExit1 := func(t *testing.T, args []string, check func(stderr string)) {
		t.Helper()
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		if stdout != "" {
			t.Errorf("stdout %q, want none", stdout)
		}
		check(stderr)
	}

	t.Run("trace byte", func(t *testing.T) {
		ck, tr := filepath.Join(dir, "ck-trace"), filepath.Join(dir, "t.jsonl")
		run(t, ck, "-trace", tr)
		keepMiddleCheckpoint(t, ck)
		data, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		data[10] ^= 0x01 // inside the meta line, so inside every checkpoint's prefix
		if err := os.WriteFile(tr, data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectExit1(t, []string{"-resume", ck, "-trace", tr}, func(stderr string) {
			want := "experiment: resume diverged: the trace file differs from the re-simulated run at byte 10\n"
			if stderr != want {
				t.Errorf("stderr %q, want %q", stderr, want)
			}
		})
	})

	t.Run("state digest", func(t *testing.T) {
		ck := filepath.Join(dir, "ck-state")
		run(t, ck)
		idx := keepMiddleCheckpoint(t, ck)
		var head checkpointHead
		if err := checkpoint.Read(filepath.Join(ck, checkpoint.FileName(idx)), &head); err != nil {
			t.Fatal(err)
		}
		head.Config.Seed++
		if err := checkpoint.Write(ck, idx, head); err != nil {
			t.Fatal(err)
		}
		expectExit1(t, []string{"-resume", ck}, func(stderr string) {
			prefix := fmt.Sprintf("experiment: resume diverged: state digest at boundary %d is ", idx)
			suffix := fmt.Sprintf(", the checkpoint says %016x\n", head.Digest)
			if !strings.HasPrefix(stderr, prefix) || !strings.HasSuffix(stderr, suffix) {
				t.Errorf("stderr %q, want %q…%q", stderr, prefix, suffix)
			}
		})
	})
}
