package cli

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
)

// command is one of the four CLIs.
type command struct {
	name string
	run  func(args []string, stdout, stderr io.Writer) int
}

var (
	qsim    = command{"qsim", Qsim}
	qsweep  = command{"qsweep", Qsweep}
	qtrace  = command{"qtrace", Qtrace}
	qreport = command{"qreport", Qreport}
)

// call runs c in process on args.
func call(c command, args ...string) (stdout, stderr string, code int) {
	var out, errb strings.Builder
	code = c.run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// writeFile writes body to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	examples = "../../examples/"
	// A two-class, two-period Query Scheduler scenario; %s is its seed
	// line.
	smallScenario = `{%s"mode": "query-scheduler", "period_minutes": 5,
		"classes": [
			{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1},
			{"kind": "oltp", "goal_metric": "response_time", "goal_target": 0.25, "importance": 2}],
		"periods": [[2, 10], [3, 12]]}`
)

// TestExitCodes pins the exit code of each CLI for each class of input:
// flags, scenario JSON, fault plans, checkpoint directories, and trace
// and decision-log files. Bad input exits 2 and a file that cannot be
// read exits 1, both with a one-line message and nothing on stdout; a
// simulation crash exits 3.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	badJSON := writeFile(t, dir, "bad.json", `{"mode": `)
	trace := writeFile(t, dir, "trace.jsonl", `{"type":"meta","v":1,"experiment":"x","seed":1,"period_seconds":600,"periods":1,`+
		`"classes":[{"id":1,"name":"Class1","kind":"OLAP","goal":"velocity >= 0.40","target":0.4}]}`+"\n")
	garbage := writeFile(t, dir, "garbage.jsonl", "not json\n")
	missing := filepath.Join(dir, "missing")
	emptyDir := filepath.Join(dir, "empty")
	if err := os.Mkdir(emptyDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Inputs a resume cannot tell apart, beside the ones above.
	other := t.TempDir()
	presetNamed := writeFile(t, other, "fig6.json", strings.Replace(smallScenario, "%s", `"name": "fig6", `, 1))
	scenarioNamed := writeFile(t, other, "scenario.json", strings.Replace(smallScenario, "%s", `"name": "scenario", `, 1))
	failoverCk := filepath.Join(other, "failover")
	plan := experiment.FailoverPlan(1, true)
	writeCheckpoint(t, failoverCk, experiment.FailoverMixedConfig(experiment.FailoverConfig{Seed: 1, Quick: true}, &plan))
	resumeMsg := "does not apply to -resume: the checkpoint holds the run's config\n"
	faultsMsg := "-faults applies to -exp fig4|fig5|fig6|fig7|infeasible|routing|faultmatrix|crashrecovery|all or -scenario\n"
	mitigateMsg := "-mitigate applies to a mixed run: -exp fig4|fig5|fig6|fig7|infeasible|routing|all or -scenario\n"
	quickMsg := "-quick applies to -exp failover|faultmatrix\n"
	cases := []struct {
		name string
		cmd  command
		args []string
		code int
		// stderr is the whole expected stderr; a pattern starting with
		// "~" is a regular expression it must match instead.
		stderr string
	}{
		// Flags.
		{"qsim undefined flag", qsim, []string{"-control", "qs"}, 2, "~^flag provided but not defined: -control\nUsage of qsim:\n"},
		{"qsweep undefined flag", qsweep, []string{"-bogus"}, 2, "~^flag provided but not defined: -bogus\nUsage of qsweep:\n"},
		{"qtrace undefined flag", qtrace, []string{"-bogus"}, 2, "~^flag provided but not defined: -bogus\nUsage of qtrace:\n"},
		{"qreport undefined flag", qreport, []string{"-bogus"}, 2, "~^flag provided but not defined: -bogus\nUsage of qreport:\n"},
		{"qsim help", qsim, []string{"-h"}, 0, "~^Usage of qsim:\n"},
		{"qreport help", qreport, []string{"-help"}, 0, "~^Usage of qreport:\n"},
		{"qsim unknown experiment", qsim, []string{"-exp", "bogus"}, 2, "unknown experiment \"bogus\"\n"},
		{"qsim no backends", qsim, []string{"-exp", "fig6", "-backends", "0"}, 2, "-backends must be at least 1\n"},
		{"qsim Query Scheduler fleet too large to split", qsim, []string{"-exp", "fig6", "-backends", "10"}, 2,
			"router: a Query Scheduler fleet of 10 backends leaves no budget to follow demand (each keeps a 0.1 share)\n"},
		{"qsim trace on a sweep", qsim, []string{"-exp", "syslimit", "-trace", filepath.Join(dir, "t")}, 2,
			"-trace/-metrics apply to a single mixed run: -exp fig4|fig5|fig6|fig7|infeasible|routing|failover or -scenario\n"},
		{"qsim metrics on all", qsim, []string{"-metrics", filepath.Join(dir, "m")}, 2,
			"-trace/-metrics apply to a single mixed run: -exp fig4|fig5|fig6|fig7|infeasible|routing|failover or -scenario\n"},
		{"qsim checkpoints without a directory", qsim, []string{"-exp", "fig6", "-checkpoint-every", "3"}, 2,
			"-checkpoint-every requires -checkpoint-dir\n"},
		{"qsim checkpoints on a sweep", qsim, []string{"-exp", "fig2", "-checkpoint-every", "3", "-checkpoint-dir", dir}, 2,
			"-checkpoint-every applies to a single mixed run: -exp fig4|fig5|fig6|fig7|infeasible|routing|failover or -scenario\n"},
		{"qsim checkpoints with a gzip trace", qsim, []string{"-exp", "fig6", "-checkpoint-every", "3", "-checkpoint-dir", dir, "-trace", filepath.Join(dir, "t.gz")}, 2,
			"checkpointing requires a plain -trace file (no -trace-rotate, no .gz)\n"},
		{"qsim unknown profile", qsim, []string{"-exp", "fig3", "-pprof", "disk"}, 2,
			"prof: unknown profile mode \"disk\" (want cpu or heap)\n"},
		{"qtrace no trace", qtrace, nil, 2, "usage: qtrace [-explain \"class=X period=K\"] trace.jsonl\n"},
		{"qreport no log", qreport, nil, 2, "~^usage: qreport \\[flags\\] decisions.jsonl\n  -attr\n"},
		{"qreport attr without a trace", qreport, []string{"-attr", trace}, 2, "qreport: -attr requires -trace trace.jsonl\n"},
		{"qreport bad window", qreport, []string{"-window", "x", trace}, 2, "~^qreport: "},
		// Flags an experiment would ignore.
		{"faults on failover", qsim, []string{"-exp", "failover", "-quick", "-faults", examples + "faults/abort-storm.json"}, 2, faultsMsg},
		{"faults on syslimit", qsim, []string{"-exp", "syslimit", "-faults", examples + "faults/abort-storm.json"}, 2, faultsMsg},
		{"faults on fig2", qsim, []string{"-exp", "fig2", "-faults", missing}, 2, faultsMsg},
		{"faults on fig3", qsim, []string{"-exp", "fig3", "-faults", missing}, 2, faultsMsg},
		{"faults on overhead", qsim, []string{"-exp", "overhead", "-faults", missing}, 2, faultsMsg},
		{"faults on replicated", qsim, []string{"-exp", "replicated", "-faults", missing}, 2, faultsMsg},
		{"faults on detection", qsim, []string{"-exp", "detection", "-faults", missing}, 2, faultsMsg},
		{"faults on detection-replicated", qsim, []string{"-exp", "detection-replicated", "-faults", missing}, 2, faultsMsg},
		{"faults on ablations", qsim, []string{"-exp", "ablations", "-faults", missing}, 2, faultsMsg},
		{"faults on direct", qsim, []string{"-exp", "direct", "-faults", missing}, 2, faultsMsg},
		{"mitigate on syslimit", qsim, []string{"-exp", "syslimit", "-mitigate"}, 2, mitigateMsg},
		{"mitigate on faultmatrix", qsim, []string{"-exp", "faultmatrix", "-mitigate"}, 2, mitigateMsg},
		{"mitigate on failover", qsim, []string{"-exp", "failover", "-mitigate"}, 2, mitigateMsg},
		{"quick on fig6", qsim, []string{"-exp", "fig6", "-quick"}, 2, quickMsg},
		{"quick on all", qsim, []string{"-quick"}, 2, quickMsg},
		{"quick on a scenario", qsim, []string{"-scenario", missing, "-quick"}, 2, quickMsg},
		{"seed on resume", qsim, []string{"-resume", emptyDir, "-seed", "1"}, 2, "-seed " + resumeMsg},
		{"faults on resume", qsim, []string{"-resume", emptyDir, "-faults", missing}, 2, "-faults " + resumeMsg},
		{"mitigate on resume", qsim, []string{"-resume", emptyDir, "-mitigate"}, 2, "-mitigate " + resumeMsg},
		{"backends on resume", qsim, []string{"-resume", emptyDir, "-backends", "1"}, 2, "-backends " + resumeMsg},
		{"scenario on resume", qsim, []string{"-resume", emptyDir, "-scenario", missing}, 2, "-scenario " + resumeMsg},
		{"exp on resume", qsim, []string{"-resume", emptyDir, "-exp", "fig6"}, 2, "-exp " + resumeMsg},
		// Scenario JSON.
		{"scenario that does not parse", qsim, []string{"-scenario", badJSON}, 2, "scenario: unexpected EOF\n"},
		{"scenario named like an experiment", qsim, []string{"-scenario", presetNamed}, 2,
			"scenario name \"fig6\" is reserved for -exp experiments and unnamed scenarios: a -resume could not tell the runs apart\n"},
		{"scenario named scenario", qsim, []string{"-scenario", scenarioNamed}, 2,
			"scenario name \"scenario\" is reserved for -exp experiments and unnamed scenarios: a -resume could not tell the runs apart\n"},
		{"scenario that cannot be opened", qsim, []string{"-scenario", missing}, 1, "open " + missing + ": no such file or directory\n"},
		// Fault plans.
		{"qsim fault plan that does not parse", qsim, []string{"-exp", "fig6", "-faults", badJSON}, 2, "fault: parse spec: unexpected EOF\n"},
		{"qsweep fault plan that cannot be opened", qsweep, []string{"-param", "plan-step", "-values", "500", "-faults", missing}, 1,
			"open " + missing + ": no such file or directory\n"},
		{"faultmatrix plan that crashes the only engine", qsim, []string{"-exp", "faultmatrix", "-faults", examples + "faults/backend-outage.json"}, 2,
			"fault: plan targets backend 3 of a 1-backend roster\n"},
		// Checkpoint directories.
		{"qsim resume from a missing directory", qsim, []string{"-resume", missing}, 1, "~^checkpoint: open "},
		{"qsim resume from an empty directory", qsim, []string{"-resume", emptyDir}, 1, "~^experiment: "},
		{"qsim resume of an experiment with no preset", qsim, []string{"-resume", failoverCk}, 2,
			"-resume: " + failoverCk + " is a checkpoint of -exp failover, which prints more runs than it checkpoints; rerun -exp failover\n"},
		{"qsweep resume without a directory", qsweep, []string{"-param", "plan-step", "-values", "500", "-resume"}, 2,
			"-checkpoint-every/-resume require -checkpoint-dir\n"},
		// Trace files.
		{"qtrace summary", qtrace, []string{trace}, 0, ""},
		{"qtrace missing trace", qtrace, []string{missing}, 1, "open " + missing + ": no such file or directory\n"},
		{"qtrace malformed trace", qtrace, []string{garbage}, 1, "~^trace: "},
		{"qtrace bad explain spec", qtrace, []string{"-explain", "class=Z period=1", trace}, 2, "explain: class \"Z\" but trace has only 1 classes\n"},
		{"qreport attr with a missing trace", qreport, []string{"-attr", "-trace", missing, trace}, 1, "~^qreport: "},
		// Decision logs.
		{"qreport missing log", qreport, []string{missing}, 1, "qreport: open " + missing + ": no such file or directory\n"},
		{"qreport malformed log", qreport, []string{garbage}, 1, "~^qreport: "},
		// Runs.
		{"qsim schedule table", qsim, []string{"-exp", "fig3"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := call(tc.cmd, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if re, ok := strings.CutPrefix(tc.stderr, "~"); ok {
				if !regexp.MustCompile(re).MatchString(stderr) {
					t.Errorf("stderr %q, want a match for %q", stderr, re)
				}
			} else if stderr != tc.stderr {
				t.Errorf("stderr %q, want %q", stderr, tc.stderr)
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("stdout %q, want none", stdout)
			}
		})
	}
	// No failure above may leave a file behind.
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 4 {
		t.Errorf("files %v, want only the four inputs", names)
	}
}

// writeCheckpoint writes a checkpoint at boundary 1 into dir that records
// a run of cfg and nothing more.
func writeCheckpoint(t *testing.T, dir string, cfg experiment.MixedConfig) {
	t.Helper()
	head := struct {
		Config experiment.MixedConfig
		Index  int
	}{cfg, 1}
	if err := checkpoint.Write(dir, 1, head); err != nil {
		t.Fatal(err)
	}
}

// qsweep -resume finishes a value from its checkpoint only when the
// checkpoint records the run the command line builds for that value:
// another seed is bad input naming the value, and the same flags get
// past the check to the resume itself (which finds the fabricated
// checkpoint's state digest wrong).
func TestQsweepResumeChecksItsCommandLine(t *testing.T) {
	dir := t.TempDir()
	c, err := parseQsweep([]string{"-param", "plan-step", "-values", "500", "-seed", "1", "-checkpoint-dir", dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.cfgs[0]
	ck := cfg.CheckpointDir
	cfg.CheckpointEvery, cfg.CheckpointDir = 0, ""
	writeCheckpoint(t, ck, cfg)
	for _, tc := range []struct {
		seed   string
		code   int
		stderr string
	}{
		{"2", 2, "^plan-step=500: the checkpoint in " + regexp.QuoteMeta(ck) + " is of another run than this command line builds; resume with the interrupted sweep's flags\n$"},
		{"1", 1, "^plan-step=500: experiment: resume diverged: state digest at boundary 1 "},
	} {
		stdout, stderr, code := call(qsweep, "-param", "plan-step", "-values", "500", "-seed", tc.seed, "-checkpoint-dir", dir, "-resume")
		if code != tc.code || !regexp.MustCompile(tc.stderr).MatchString(stderr) {
			t.Errorf("-seed %s: exit %d, stderr %q; want exit %d, stderr matching %q", tc.seed, code, stderr, tc.code, tc.stderr)
		}
		if code == 2 && stdout != "" {
			t.Errorf("-seed %s: stdout %q, want none", tc.seed, stdout)
		}
	}
}

// A fault-plan crash ends the run mid-simulation with exit 3, after
// flushing the partial exports a resume checks against. Before the
// CLIs ran in process only CI could see this code: `go run` masks it.
func TestCrashExits3(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ck, tr := filepath.Join(dir, "ck"), filepath.Join(dir, "t.jsonl")
	stdout, stderr, code := call(qsim, "-scenario", examples+"scenarios/mixed-burst.json",
		"-faults", examples+"faults/crash-smoke.json", "-checkpoint-every", "10", "-checkpoint-dir", ck, "-trace", tr)
	if code != 3 {
		t.Errorf("exit %d, want 3", code)
	}
	if want := "wrote " + tr + "\nsimulation crashed mid-run; resume with -resume " + ck + "\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	if want := "Scenario: Reporting burst against a latency-critical OLTP tenant\n"; stdout != want {
		t.Errorf("stdout %q, want only the scenario header", stdout)
	}
	if info, err := os.Stat(tr); err != nil || info.Size() == 0 {
		t.Errorf("trace not flushed: %v", err)
	}

	t.Run("qsweep", func(t *testing.T) {
		_, stderr, code := call(qsweep, "-param", "plan-step", "-values", "500", "-faults", examples+"faults/crash-smoke.json")
		if code != 3 {
			t.Errorf("exit %d, want 3", code)
		}
		if want := "plan-step=500: run crashed mid-simulation; re-run with -resume to finish it\n"; stderr != want {
			t.Errorf("stderr %q, want %q", stderr, want)
		}
	})
}

// An explicit -seed beats the seed a scenario file names, even when it
// is the default value 1.
func TestExplicitSeedBeatsScenarioSeed(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	seed7 := writeFile(t, dir, "seed7.json", strings.Replace(smallScenario, "%s", `"seed": 7, `, 1))
	seed1 := writeFile(t, dir, "seed1.json", strings.Replace(smallScenario, "%s", `"seed": 1, `, 1))
	run := func(args ...string) string {
		t.Helper()
		stdout, stderr, code := call(qsim, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		return stdout
	}
	want := run("-scenario", seed1)
	if run("-scenario", seed7) == want {
		t.Fatal("seeds 1 and 7 print the same tables; the test cannot tell them apart")
	}
	if got := run("-scenario", seed7, "-seed", "1"); got != want {
		t.Errorf("-seed 1 on a seed-7 scenario printed\n%s\nwant the seed-1 tables\n%s", got, want)
	}
}

// Input is checked before any file is created, and a failing run still
// stops its CPU profile: the file is a complete gzip stream. Not
// parallel: the CPU profiler is process-global.
func TestProfileOnFailure(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.pprof")
	if _, _, code := call(qsim, "-exp", "bogus", "-pprof", "cpu", "-pprof-file", prof); code != 2 {
		t.Errorf("-exp bogus: exit %d, want 2", code)
	}
	if _, err := os.Stat(prof); !os.IsNotExist(err) {
		t.Errorf("-exp bogus left a profile behind (stat: %v)", err)
	}

	_, stderr, code := call(qsim, "-resume", filepath.Join(dir, "missing"), "-pprof", "cpu", "-pprof-file", prof)
	if code != 1 {
		t.Errorf("-resume of a missing directory: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "wrote "+prof+"\n") {
		t.Errorf("stderr %q does not name the profile", stderr)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Errorf("profile is not a complete gzip stream: %v", err)
	}
}

// Every flag an experiment reads passes the checks, -exp all included.
func TestParseAcceptsFlagsTheRunReads(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "f.json", "-mitigate"},
		{"-exp", "fig4", "-backends", "2", "-trace", "t", "-metrics", "m", "-checkpoint-every", "2", "-checkpoint-dir", "ck", "-faults", "f", "-mitigate"},
		{"-exp", "fig7", "-decisions", "d"},
		{"-exp", "infeasible", "-decisions", "d", "-faults", "f", "-mitigate"},
		{"-exp", "routing", "-trace", "t", "-checkpoint-every", "1", "-checkpoint-dir", "ck"},
		{"-exp", "failover", "-quick", "-trace", "t", "-decisions", "d", "-checkpoint-every", "1", "-checkpoint-dir", "ck"},
		{"-exp", "faultmatrix", "-quick", "-faults", "f"},
		{"-exp", "crashrecovery", "-faults", "f"},
		{"-scenario", "s.json", "-seed", "3", "-faults", "f", "-mitigate", "-decisions", "d", "-trace-rotate", "100", "-trace", "t"},
		{"-resume", "ck", "-trace", "t", "-metrics", "m", "-decisions", "d", "-checkpoint-every", "3"},
	} {
		if _, err := parseQsim(args, io.Discard); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// goRunLine matches a documented command: `go run ./cmd/<cli>` and its
// arguments, up to the end of the line, a closing backquote, a pipe, a
// redirection or a shell comment.
var goRunLine = regexp.MustCompile("go run \\./cmd/(qsim|qsweep|qtrace|qreport)((?: +[^ \n`|>#]+)*)")

// Every command the documentation shows passes its CLI's flag parsing
// and checks, so a documented command cannot go stale. Nothing runs and
// no input file is read; a path under examples/ must exist.
func TestDocumentedCommandsParse(t *testing.T) {
	docs, err := filepath.Glob("../../examples/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../EXPERIMENTS.md")
	parse := map[string]func([]string, io.Writer) error{
		"qsim":    func(a []string, w io.Writer) error { _, err := parseQsim(a, w); return err },
		"qsweep":  func(a []string, w io.Writer) error { _, err := parseQsweep(a, w); return err },
		"qtrace":  func(a []string, w io.Writer) error { _, err := parseQtrace(a, w); return err },
		"qreport": func(a []string, w io.Writer) error { _, err := parseQreport(a, w); return err },
	}
	n := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile(`\\\n\s*`).ReplaceAllString(string(data), "") // join continuations
		for _, m := range goRunLine.FindAllStringSubmatch(text, -1) {
			n++
			args := shellWords(m[2])
			var stderr strings.Builder
			if err := parse[m[1]](args, &stderr); err != nil {
				t.Errorf("%s: %s %q: %v %s", filepath.Base(doc), m[1], args, err, stderr.String())
			}
			for _, a := range args {
				if strings.HasPrefix(a, "examples/") {
					if _, err := os.Stat("../../" + a); err != nil {
						t.Errorf("%s: %s: %v", filepath.Base(doc), m[0], err)
					}
				}
			}
		}
	}
	if n < 50 {
		t.Errorf("found %d documented commands, want at least 50: the extractor has gone blind", n)
	}
}

// shellWords splits s on spaces, keeping double-quoted words whole.
func shellWords(s string) []string {
	var words []string
	for _, m := range regexp.MustCompile(`"([^"]*)"|(\S+)`).FindAllStringSubmatch(s, -1) {
		words = append(words, m[1]+m[2])
	}
	return words
}
