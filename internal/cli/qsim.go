package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	"repro/internal/workload"
)

// The result-changing flags that only some experiments read; the others
// reject them rather than ignore them.
const (
	readsBackends  = 1 << iota // -backends N
	readsExports               // -trace, -metrics, -checkpoint-every
	readsDecisions             // -decisions
	readsFaults                // -faults
	readsMitigate              // -mitigate
	readsQuick                 // -quick

	singleRun   = readsBackends | readsExports | readsDecisions // never with -exp all
	mixedReads  = readsExports | readsFaults | readsMitigate
	figureReads = mixedReads | readsBackends
)

// qsimExperiment is one -exp name: whether -exp all runs it, the flags
// above that it reads, and how it runs. A single mixed run has a preset,
// its config before the command line is laid over it (exp is the -exp
// value), and run then gets its result; with reuse, the result of the
// experiment before it, when that one ran too.
type qsimExperiment struct {
	name   string
	inAll  bool
	reads  int
	preset func(exp string) experiment.MixedConfig
	reuse  bool
	bare   bool // no blank line after its output
	run    func(q *qsimRun, res *experiment.FleetResult) error
}

// qsimExperiments lists every experiment in the order -exp all prints.
var qsimExperiments = []*qsimExperiment{
	{name: "syslimit", inAll: true, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		cfg := experiment.DefaultSaturationConfig()
		cfg.Seed, cfg.Parallel = q.seed, q.parallel
		points := experiment.RunSaturation(cfg)
		experiment.WriteSaturation(q.out, points)
		if q.chart {
			experiment.WriteSaturationChart(q.out, points)
		}
		return q.writeCSV("syslimit.csv", experiment.SaturationCSV(points))
	}},
	{name: "fig2", inAll: true, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		cfg := experiment.DefaultFig2Config()
		cfg.Seed, cfg.Parallel = q.seed, q.parallel
		curves := experiment.RunFig2(cfg)
		experiment.WriteFig2(q.out, curves)
		if q.chart {
			experiment.WriteFig2Charts(q.out, curves)
		}
		return q.writeCSV("fig2.csv", experiment.Fig2CSV(curves))
	}},
	{name: "fig3", inAll: true, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		experiment.WriteSchedule(q.out, workload.PaperSchedule(), workload.PaperClasses())
		if q.chart {
			experiment.WriteScheduleChart(q.out, workload.PaperSchedule(), workload.PaperClasses())
		}
		return nil
	}},
	{name: "fig4", inAll: true, reads: figureReads, preset: figure(experiment.NoControl), run: writeMixed},
	{name: "fig5", inAll: true, reads: figureReads, preset: figure(experiment.QPPriority), run: writeMixed},
	// fig6 and fig7 are two views of one Query Scheduler run.
	{name: "fig6", inAll: true, reads: figureReads | readsDecisions, preset: figure(experiment.QueryScheduler), run: writeMixed},
	{name: "fig7", inAll: true, reads: figureReads | readsDecisions, preset: figure(experiment.QueryScheduler), reuse: true,
		run: func(q *qsimRun, res *experiment.FleetResult) error {
			experiment.WriteCostLimitTable(q.out, res.MixedResult)
			if q.chart {
				experiment.WriteCostLimitCharts(q.out, res.MixedResult)
			}
			return q.writeCSV("fig7.csv", experiment.CostLimitsCSV(res.MixedResult))
		}},
	// Not in -exp all: deliberately unmeetable goals.
	{name: "infeasible", reads: mixedReads | readsDecisions,
		preset: func(string) experiment.MixedConfig { return experiment.InfeasibleMixedConfig() },
		run:    withSummary(experiment.WriteInfeasibility)},
	// Not in -exp all: the heterogeneous fleet is its own testbed.
	{name: "routing", reads: mixedReads | readsDecisions,
		preset: func(string) experiment.MixedConfig { return experiment.RoutingMixedConfig() },
		run:    withSummary(experiment.WriteRouting)},
	// Not in -exp all: three full fleet runs with their own fault plan
	// and mitigation arms (only the failover arm checkpoints).
	{name: "failover", reads: readsExports | readsDecisions | readsQuick, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		r := experiment.RunFailover(experiment.FailoverConfig{
			Seed:            q.seed,
			Quick:           q.quick,
			Trace:           q.ex.trace.writer(),
			Metrics:         q.ex.metrics.writer(),
			Decisions:       q.ex.decisions.writer(),
			CheckpointEvery: q.checkpointEvery,
			CheckpointDir:   q.checkpointDir,
		})
		if err := checkResult(r.Failover.Result.MixedResult, q.crashMsg); err != nil {
			return err
		}
		experiment.WriteFailover(q.out, r)
		return q.writeCSV("failover.csv", experiment.FailoverCSV(r))
	}},
	{name: "overhead", inAll: true, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		experiment.WriteInterception(q.out, experiment.RunInterceptionOverhead(20, 0.025, q.seed, q.parallel))
		return nil
	}},
	// Not in -exp all: it reruns everything -seeds times.
	{name: "replicated", run: func(q *qsimRun, _ *experiment.FleetResult) error {
		seeds := experiment.DefaultSeeds(q.seeds)
		var reps []experiment.Replication
		for _, mode := range []experiment.Mode{experiment.NoControl, experiment.QPPriority, experiment.QueryScheduler} {
			reps = append(reps, experiment.RunReplicated(mode, workload.PaperSchedule(), seeds, q.parallel))
		}
		experiment.WriteReplication(q.out, workload.PaperClasses(), reps)
		return nil
	}},
	{name: "detection", inAll: true, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		cfg := experiment.DefaultDetectionConfig()
		cfg.Seed = q.seed
		experiment.WriteDetection(q.out, experiment.RunDetection(cfg))
		return nil
	}},
	// Not in -exp all: it reruns detection -seeds times.
	{name: "detection-replicated", run: func(q *qsimRun, _ *experiment.FleetResult) error {
		results := experiment.RunDetectionReplicated(experiment.DefaultDetectionConfig(), experiment.DefaultSeeds(q.seeds), q.parallel)
		fmt.Fprintf(q.out, "(counts summed over %d seeds)\n", q.seeds)
		experiment.WriteDetection(q.out, results)
		return nil
	}},
	// Not in -exp all: eight full Query Scheduler runs.
	{name: "ablations", run: func(q *qsimRun, _ *experiment.FleetResult) error {
		specs := experiment.AblationSpecs()
		experiment.WriteAblations(q.out, specs, experiment.RunAblations(specs, workload.PaperSchedule(), q.seed, q.parallel))
		return nil
	}},
	// Not in -exp all: ten full Query Scheduler runs, each with and
	// without mitigations.
	{name: "faultmatrix", reads: readsFaults | readsQuick, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		cfg := experiment.DefaultFaultMatrixConfig()
		if q.quick {
			cfg = experiment.QuickFaultMatrixConfig()
		}
		cfg.Seed, cfg.Parallel = q.seed, q.parallel
		if q.faults != nil {
			// A custom plan replaces the built-in scenario set; it still
			// runs both arms.
			cfg.Scenarios = []experiment.FaultScenario{{Name: "custom", Plan: *q.faults}}
		}
		cells := experiment.RunFaultMatrix(cfg)
		experiment.WriteFaultMatrix(q.out, cells)
		return q.writeCSV("faultmatrix.csv", experiment.FaultMatrixCSV(cells))
	}},
	// Not in -exp all: nine full Query Scheduler runs; exit 1 if a cell
	// did not recover.
	{name: "crashrecovery", reads: readsFaults, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		cfg := experiment.DefaultCrashRecoveryConfig()
		cfg.Seed, cfg.Parallel = q.seed, q.parallel
		if q.faults != nil {
			// A custom plan replaces the built-in one; its crash time is
			// still overwritten per cell.
			cfg.Faults = *q.faults
		}
		cells := experiment.RunCrashRecovery(cfg)
		experiment.WriteCrashRecovery(q.out, cells)
		if err := q.writeCSV("crashrecovery.csv", experiment.CrashRecoveryCSV(cells)); err != nil {
			return err
		}
		for _, c := range cells {
			if !c.Recovered() {
				fmt.Fprintln(q.out)
				return &exitError{code: 1}
			}
		}
		return nil
	}},
	{name: "direct", inAll: true, run: func(q *qsimRun, _ *experiment.FleetResult) error {
		cfg := experiment.DefaultDirectControlConfig()
		cfg.Seed, cfg.Parallel = q.seed, q.parallel
		experiment.WriteDirectControl(q.out, cfg, experiment.RunDirectControl(cfg))
		return nil
	}},
}

// scenarioRun is the single run -exp does not name: a -scenario file, or
// a resumed run whose label names no -exp experiment.
var scenarioRun = &qsimExperiment{name: "scenario", reads: mixedReads | readsDecisions, bare: true,
	run: func(q *qsimRun, res *experiment.FleetResult) error {
		experiment.WriteMixed(q.out, res.MixedResult)
		if res.CostLimits != nil {
			experiment.WriteCostLimitTable(q.out, res.MixedResult)
		}
		if q.chart {
			experiment.WriteMixedCharts(q.out, res.MixedResult)
		}
		return q.writeCSV(q.name+".csv", experiment.MixedCSV(res.MixedResult))
	}}

// named returns the -exp experiment called name, or nil.
func named(name string) *qsimExperiment {
	for _, e := range qsimExperiments {
		if e.name == name {
			return e
		}
	}
	return nil
}

// appliesTo names, in table order, the -exp values whose runs read the
// flag behind bit ("all" last when -exp all does), then scenario when a
// -scenario run reads it. Every rejection message and flag description
// builds its list here, so neither can drift from the table.
func appliesTo(bit int, scenario string) string {
	var names []string
	all := false
	for _, e := range qsimExperiments {
		if e.reads&bit != 0 {
			names = append(names, e.name)
			all = all || e.inAll
		}
	}
	if all && bit&singleRun == 0 {
		names = append(names, "all")
	}
	s := "-exp " + strings.Join(names, "|")
	if scenarioRun.reads&bit != 0 {
		s += " or " + scenario
	}
	return s
}

// figure presets a paper figure's run under mode, labelled with -exp.
func figure(mode experiment.Mode) func(string) experiment.MixedConfig {
	return func(exp string) experiment.MixedConfig {
		cfg := experiment.DefaultMixedConfig(mode)
		cfg.Experiment = exp
		return cfg
	}
}

// qsimCmd is one parsed and checked qsim command line.
type qsimCmd struct {
	runFlags
	exp, scenario, csvDir, resumeDir string
	seeds                            int
	chart, quick                     bool
	traceRotate                      int64
	resumeIndex                      int // the checkpoint -resume finishes from
	selected                         []*qsimExperiment
	cfgs                             []*experiment.MixedConfig // built runs, by selected index
	header                           string                    // printed as a scenario run starts
	crashMsg                         string
}

// Qsim runs the paper's experiments and prints their tables.
func Qsim(args []string, stdout, stderr io.Writer) int {
	c, err := parseQsim(args, stderr)
	if err == nil {
		err = c.profile("qsim", stderr, func() error { return c.run(stdout, stderr) })
	}
	return exitCode(stderr, err)
}

// parseQsim parses the flags and checks them against each other and the
// experiment table; it opens no file.
func parseQsim(args []string, stderr io.Writer) (*qsimCmd, error) {
	c := &qsimCmd{}
	fs := newFlagSet("qsim", stderr)
	fs.StringVar(&c.exp, "exp", "all", "experiment: syslimit|fig2|fig3|fig4|fig5|fig6|fig7|overhead|direct|detection|detection-replicated|replicated|ablations|faultmatrix|crashrecovery|infeasible|routing|failover|all")
	fs.IntVar(&c.backends, "backends", 1, "run on N identical backends behind the routing tier ("+appliesTo(readsBackends, "")+"); 1 = the paper's single engine")
	fs.IntVar(&c.seeds, "seeds", 5, "number of seeds for -exp replicated / detection-replicated")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.parallel, "parallel", 0, "worker goroutines for independent runs within an experiment (0 = GOMAXPROCS, 1 = serial); results are identical for any value")
	fs.BoolVar(&c.chart, "chart", false, "draw figures as terminal line charts in addition to tables")
	fs.StringVar(&c.scenario, "scenario", "", "run a custom JSON scenario file instead of a named experiment")
	fs.StringVar(&c.csvDir, "csv", "", "also write each experiment's data as CSV files into this directory")
	fs.StringVar(&c.trace, "trace", "", "write the run's lossless JSONL event trace to this file (single mixed runs only: "+appliesTo(readsExports, "-scenario")+"; inspect with qtrace)")
	fs.StringVar(&c.metrics, "metrics", "", "write the run's metrics as Prometheus text exposition to this file (mixed runs only, like -trace)")
	fs.StringVar(&c.decisions, "decisions", "", "write the control plane's decision audit log as JSONL to this file (Query Scheduler runs only: "+appliesTo(readsDecisions, "a query-scheduler -scenario")+"; inspect with qreport)")
	fs.StringVar(&c.faultsFile, "faults", "", "inject the deterministic fault plan from this JSON file ("+appliesTo(readsFaults, "-scenario")+"; see internal/fault)")
	fs.BoolVar(&c.mitigate, "mitigate", false, "with -faults on a mixed run ("+appliesTo(readsMitigate, "-scenario")+"): arm the mitigation stack (timeout+retry, plan hold, slope fallback)")
	fs.BoolVar(&c.quick, "quick", false, "with "+appliesTo(readsQuick, "")+": run the CI-smoke-sized schedule instead of the full one")
	fs.Int64Var(&c.traceRotate, "trace-rotate", 0, "rotate the -trace file once a segment exceeds this many bytes (0 = never); rotated segments move to <file>.1, .2, ... and each re-starts with the meta line")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 0, "write a crash-consistent checkpoint every N control boundaries (single mixed runs only: "+appliesTo(readsExports, "-scenario")+"; requires -checkpoint-dir)")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "directory checkpoint files are written to")
	fs.StringVar(&c.resumeDir, "resume", "", "resume an interrupted mixed run from this checkpoint directory; pass the interrupted run's -trace/-metrics/-decisions paths, and stdout, -csv and those files match an uninterrupted run byte for byte (the checkpoint's -exp or scenario name picks what is printed; -exp failover does not resume)")
	fs.StringVar(&c.pprofMode, "pprof", "", "collect a runtime profile of this invocation: cpu or heap")
	fs.StringVar(&c.pprofFile, "pprof-file", "", "profile output path (default qsim-cpu.pprof / qsim-heap.pprof)")
	set, err := parseFlags(fs, args)
	if err != nil {
		return nil, err
	}
	c.seedSet = set["seed"]
	c.crashMsg = "simulation crashed mid-run (no checkpoints were enabled)"
	if c.checkpointDir != "" {
		c.crashMsg = "simulation crashed mid-run; resume with -resume " + c.checkpointDir
	}
	if c.backends < 1 {
		return nil, usagef("-backends must be at least 1")
	}
	reads := 0
	switch {
	case c.resumeDir != "":
		for _, name := range []string{"seed", "faults", "mitigate", "backends", "scenario", "exp"} {
			if set[name] {
				return nil, usagef("-%s does not apply to -resume: the checkpoint holds the run's config", name)
			}
		}
		reads = readsExports | readsDecisions // ResumeFleet checks them
	case c.scenario != "":
		c.selected = []*qsimExperiment{scenarioRun}
	default:
		for _, e := range qsimExperiments {
			if c.exp == e.name || c.exp == "all" && e.inAll {
				c.selected = append(c.selected, e)
			}
		}
		if len(c.selected) == 0 {
			return nil, usagef("unknown experiment %q", c.exp)
		}
	}
	for _, e := range c.selected {
		reads |= e.reads
	}
	if len(c.selected) > 1 {
		reads &^= singleRun
	}
	for _, r := range []struct {
		given bool
		reads int // 0: never accepted
		msg   string
	}{
		{c.backends > 1, readsBackends, "-backends applies to " + appliesTo(readsBackends, "") + " (use -exp routing for the heterogeneous E14 fleet)"},
		{c.trace != "" || c.metrics != "", readsExports, "-trace/-metrics apply to a single mixed run: " + appliesTo(readsExports, "-scenario")},
		{c.decisions != "", readsDecisions, "-decisions applies to a single Query Scheduler run: " + appliesTo(readsDecisions, "a query-scheduler -scenario")},
		{c.faultsFile != "", readsFaults, "-faults applies to " + appliesTo(readsFaults, "-scenario")},
		{c.mitigate, readsMitigate, "-mitigate applies to a mixed run: " + appliesTo(readsMitigate, "-scenario")},
		{c.quick, readsQuick, "-quick applies to " + appliesTo(readsQuick, "")},
		{c.checkpointEvery > 0 && c.checkpointDir == "" && c.resumeDir == "", 0, "-checkpoint-every requires -checkpoint-dir"},
		{c.checkpointEvery > 0, readsExports, "-checkpoint-every applies to a single mixed run: " + appliesTo(readsExports, "-scenario")},
	} {
		if r.given && reads&r.reads == 0 {
			return nil, &exitError{2, errors.New(r.msg)}
		}
	}
	if (c.checkpointEvery > 0 || c.resumeDir != "") && (c.traceRotate > 0 || strings.HasSuffix(c.trace, ".gz")) {
		// Resume checks the trace file up to a checkpointed byte offset
		// and truncates it there; rotation and compression destroy that
		// stable offset.
		return nil, usagef("checkpointing requires a plain -trace file (no -trace-rotate, no .gz)")
	}
	return c, nil
}

// load reads the fault plan, the scenario and the checkpoint to resume
// (which prints as the -exp preset its label names, or as a scenario),
// then builds and validates every mixed run before any file is created.
func (c *qsimCmd) load(warn io.Writer) (err error) {
	if err := c.loadFaults(); err != nil {
		return err
	}
	var cfg experiment.MixedConfig
	switch {
	case c.resumeDir != "":
		if cfg, c.resumeIndex, err = experiment.CheckpointConfig(c.resumeDir, warn); err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return usagef("%w", err)
		}
		cfg.CheckpointEvery, cfg.CheckpointDir = c.checkpointEvery, c.resumeDir
		c.selected = []*qsimExperiment{scenarioRun}
		if e := named(cfg.Experiment); e != nil && e.preset == nil {
			return usagef("-resume: %s is a checkpoint of -exp %s, which prints more runs than it checkpoints; rerun -exp %s", c.resumeDir, e.name, e.name)
		} else if e != nil {
			c.selected[0] = e
		}
	case c.scenario != "":
		sc, err := parseFile(c.scenario, experiment.ParseScenario)
		if err != nil {
			return err
		}
		if sc.Name == scenarioRun.name || named(sc.Name) != nil {
			return usagef("scenario name %q is reserved for -exp experiments and unnamed scenarios: a -resume could not tell the runs apart", sc.Name)
		}
		if cfg, err = c.build(sc.MixedConfig, c.checkpointDir); err != nil {
			return err
		}
	default:
		mixed := false
		for _, e := range c.selected {
			var built *experiment.MixedConfig
			if e.preset != nil {
				cfg, err := c.build(e.preset(c.exp), c.checkpointDir)
				if err != nil {
					return err
				}
				built, mixed = &cfg, true
			}
			c.cfgs = append(c.cfgs, built)
		}
		if c.faults != nil && !mixed {
			// faultmatrix and crashrecovery run the plan on one engine.
			if err := c.faults.ValidateRoster(1); err != nil {
				return usagef("%w", err)
			}
		}
		return nil
	}
	if l := cfg.Experiment; c.selected[0] == scenarioRun && l != "" && l != scenarioRun.name {
		c.header = "Scenario: " + l + "\n"
	}
	c.cfgs = []*experiment.MixedConfig{&cfg}
	return nil
}

// qsimRun is a qsim invocation underway.
type qsimRun struct {
	*qsimCmd
	out, stderr io.Writer
	ex          *exports
	name        string // the experiment running
}

func (c *qsimCmd) run(stdout, stderr io.Writer) (err error) {
	if err := c.load(stderr); err != nil {
		return err
	}
	ex, err := openExports(c.trace, c.metrics, c.decisions, c.traceRotate, c.resumeIndex)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeSinks(stderr, err, ex.trace, ex.metrics, ex.decisions); err == nil {
			err = cerr
		}
	}()
	q := &qsimRun{qsimCmd: c, out: stdout, stderr: stderr, ex: ex}
	fmt.Fprint(q.out, c.header)
	var res *experiment.FleetResult
	for i, e := range c.selected {
		if cfg := c.cfgs[i]; cfg != nil && !(e.reuse && res != nil) {
			if res, err = q.runMixed(*cfg); err != nil {
				return err
			}
		}
		q.name = e.name
		if err := e.run(q, res); err != nil {
			return err
		}
		if !e.bare {
			fmt.Fprintln(q.out)
		}
	}
	return nil
}

// runMixed runs, or resumes, one built mixed run with the exports
// attached and judges its result.
func (q *qsimRun) runMixed(cfg experiment.MixedConfig) (*experiment.FleetResult, error) {
	res, err := q.ex.run(cfg)
	if err != nil {
		return nil, err
	}
	return res, checkResult(res.MixedResult, q.crashMsg)
}

// writeMixed prints a paper figure's per-period tables.
func writeMixed(q *qsimRun, res *experiment.FleetResult) error {
	experiment.WriteMixed(q.out, res.MixedResult)
	if q.chart {
		experiment.WriteMixedCharts(q.out, res.MixedResult)
	}
	return q.writeCSV(q.name+".csv", experiment.MixedCSV(res.MixedResult))
}

// withSummary prints a mixed run's tables, then its summary.
func withSummary(summary func(io.Writer, *experiment.FleetResult)) func(*qsimRun, *experiment.FleetResult) error {
	return func(q *qsimRun, res *experiment.FleetResult) error {
		if err := writeMixed(q, res); err != nil {
			return err
		}
		fmt.Fprintln(q.out)
		summary(q.out, res)
		return nil
	}
}

// writeCSV writes one experiment's data into the -csv directory, if any.
func (q *qsimRun) writeCSV(name, content string) error {
	if q.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(q.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(q.csvDir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(q.stderr, "wrote %s\n", path)
	return nil
}
