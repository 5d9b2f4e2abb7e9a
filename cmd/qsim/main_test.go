package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// runCLI runs qsim in process on args.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = cli.Qsim(args, &out, &errb)
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
	badRate := plan("bad-rate.json", `{"abort_rate": {"1": 1.5}}`)
	unknownField := plan("unknown-field.json", `{"abort_rates": {"1": 0.1}}`)
	scenario := plan("scenario.json", `{"mode": "qp-priority", "period_minutes": 5,
		"classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1}],
		"periods": [[2]], "backends": [{"name": "x"}, {"name": "y"}]}`)
	negative := plan("negative.json", `{"mode": "qp-priority", "period_minutes": 5,
		"classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1}],
		"periods": [[2], [-1]]}`)
	mismatch := plan("mismatch.json", `{"mode": "query-scheduler", "period_minutes": 5,
		"classes": [{"kind": "olap", "goal_metric": "response_time", "goal_target": 5, "importance": 1}],
		"periods": [[2]]}`)
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
		{"fault plan that does not validate", []string{"-exp", "fig6", "-faults", badRate},
			"fault: abort rate 1.5 for class 1 out of [0, 1]\n"},
		{"fault plan that does not parse", []string{"-exp", "fig6", "-faults", unknownField},
			"fault: parse spec: json: unknown field \"abort_rates\"\n"},
		{"crash a scenario's whole roster", []string{"-scenario", scenario, "-faults", crashBoth},
			"fault: backend crashes leave no backend up at t=450 (2 of 2 down)\n"},
		{"negative client count in a scenario", []string{"-scenario", negative},
			"scenario: experiment: schedule period 2 has -1 clients for class 1\n"},
		{"OLAP class with a response-time goal in a scenario", []string{"-scenario", mismatch},
			"scenario: experiment: class 1 is OLAP but its goal metric is avg-response-time; OLAP goals are velocity\n"},
		{"backends on a sweep", []string{"-exp", "syslimit", "-backends", "2"},
			"-backends applies to -exp fig4|fig5|fig6|fig7 (use -exp routing for the heterogeneous E14 fleet)\n"},
		{"decisions without a scheduler", []string{"-exp", "fig4", "-decisions", filepath.Join(dir, "d.jsonl")},
			"-decisions applies to a single Query Scheduler run: -exp fig6|fig7|infeasible|routing|failover or a query-scheduler -scenario\n"},
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

// A -faults file that cannot be opened is an I/O error, not a usage
// error: it exits 1, where a plan that does not parse exits 2.
func TestFaultsFileMissingExits1(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	stdout, stderr, code := runCLI(t, "-exp", "fig6", "-faults", missing)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if want := "open " + missing + ": no such file or directory\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	if stdout != "" {
		t.Errorf("stdout %q, want none", stdout)
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

// A checkpoint whose schedule the pool cannot apply is bad input: the
// resume exits 2 with Validate's message instead of panicking mid-run.
func TestResumeInvalidScheduleExits2(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(scenario, []byte(`{"mode": "no-control", "period_minutes": 1,
		"classes": [
			{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1},
			{"kind": "oltp", "goal_metric": "response_time", "goal_target": 0.25, "importance": 2}],
		"periods": [[2, 10], [3, 12], [1, 5]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "ck")
	if _, stderr, code := runCLI(t, "-scenario", scenario, "-checkpoint-every", "1", "-checkpoint-dir", ck); code != 0 {
		t.Fatalf("checkpointed run exit %d: %s", code, stderr)
	}
	path := filepath.Join(ck, checkpoint.FileName(keepMiddleCheckpoint(t, ck)))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		edit   func(*workload.Schedule)
		stderr string
	}{
		{"empty schedule", func(s *workload.Schedule) { s.Clients = nil }, "experiment: empty schedule\n"},
		{"negative count", func(s *workload.Schedule) { s.Clients[1][1] = -1 },
			"experiment: schedule period 2 has -1 clients for class 1\n"},
		{"unknown class", func(s *workload.Schedule) { s.Clients[0][9] = 5 },
			"experiment: schedule period 1 has 5 clients for class 9, which the run does not have\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			var head checkpointHead
			if err := checkpoint.Read(path, &head); err != nil {
				t.Fatal(err)
			}
			tc.edit(&head.Config.Sched)
			if err := checkpoint.Write(ck, head.Index, head); err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := runCLI(t, "-resume", ck)
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
