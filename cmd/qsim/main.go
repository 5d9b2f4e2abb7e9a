// Command qsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	qsim -exp fig4            # per-period performance, no class control
//	qsim -exp fig6 -seed 7    # Query Scheduler run with another seed
//	qsim -exp fig6 -backends 3  # same run on a 3-backend fleet
//	qsim -exp routing         # E14: heterogeneous fleet + routing tier
//	qsim -exp failover        # E15: kill 1-of-3 backends mid-run
//	qsim -exp all             # everything, in paper order
//	qsim -exp fig2 -parallel 8  # fan the sweep across 8 workers
//
// Sweep-style experiments (syslimit, fig2, replicated, direct, overhead,
// detection-replicated, ablations) consist of many independent simulation
// runs; -parallel fans them across a bounded worker pool. Results are
// bit-identical for any worker count — each run owns its clock, engine,
// and RNG (see internal/experiment/parallel.go for the isolation
// invariant).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/workload"
)

// loadFaults parses a JSON fault plan (nil when path is empty).
func loadFaults(path string) *fault.Plan {
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	plan, err := fault.ParseSpec(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return &plan
}

// loadScenario parses a JSON scenario file.
func loadScenario(path string) *experiment.Scenario {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	sc, err := experiment.ParseScenario(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return sc
}

// fileSink is a buffered file target for trace/metrics export. The trace
// sink in particular receives one small write per event, so buffering is
// what keeps exporting a 24-hour run cheap.
type fileSink struct {
	f  *os.File
	bw *bufio.Writer
}

// openSink creates path (nil when path is empty).
func openSink(path string) *fileSink {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return &fileSink{f: f, bw: bufio.NewWriterSize(f, 1<<20)}
}

// writer returns the sink's io.Writer, or a nil interface for a nil sink
// (a typed-nil *fileSink inside an io.Writer would defeat nil checks).
func (s *fileSink) writer() io.Writer {
	if s == nil {
		return nil
	}
	return s.bw
}

// close flushes and closes, exiting on error: a silently truncated
// artifact is worse than a failed run.
func (s *fileSink) close() {
	if s == nil {
		return
	}
	if err := s.bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := s.f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", s.f.Name())
}

// capability is what an experiment accepts beyond its defaults.
type capability struct {
	obs       bool // -trace, -metrics, -checkpoint-every: a single mixed run
	decisions bool // -decisions: a single Query Scheduler run
	backends  bool // -backends N
}

// capabilities lists every experiment that accepts one of the above.
var capabilities = map[string]capability{
	"fig4":       {obs: true, backends: true},
	"fig5":       {obs: true, backends: true},
	"fig6":       {obs: true, decisions: true, backends: true},
	"fig7":       {obs: true, decisions: true, backends: true},
	"infeasible": {obs: true, decisions: true},
	"routing":    {obs: true, decisions: true},
	"failover":   {obs: true, decisions: true},
}

func main() {
	exp := flag.String("exp", "all", "experiment: syslimit|fig2|fig3|fig4|fig5|fig6|fig7|overhead|direct|detection|detection-replicated|replicated|ablations|faultmatrix|crashrecovery|infeasible|routing|failover|all")
	backends := flag.Int("backends", 1, "run on N identical backends behind the routing tier (-exp fig4|fig5|fig6|fig7); 1 = the paper's single engine")
	replications := flag.Int("seeds", 5, "number of seeds for -exp replicated / detection-replicated")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for independent runs within an experiment (0 = GOMAXPROCS, 1 = serial); results are identical for any value")
	chart := flag.Bool("chart", false, "draw figures as terminal line charts in addition to tables")
	scenario := flag.String("scenario", "", "run a custom JSON scenario file instead of a named experiment")
	csvDir := flag.String("csv", "", "also write each experiment's data as CSV files into this directory")
	traceFile := flag.String("trace", "", "write the run's lossless JSONL event trace to this file (mixed runs only: fig4|fig5|fig6|fig7 or -scenario; inspect with qtrace)")
	metricsFile := flag.String("metrics", "", "write the run's metrics as Prometheus text exposition to this file (mixed runs only, like -trace)")
	decisionsFile := flag.String("decisions", "", "write the control plane's decision audit log as JSONL to this file (Query Scheduler runs only: -exp fig6|fig7|infeasible or a query-scheduler -scenario; inspect with qreport)")
	faultsFile := flag.String("faults", "", "inject the deterministic fault plan from this JSON file (mixed runs and -exp faultmatrix; see internal/fault)")
	mitigate := flag.Bool("mitigate", false, "with -faults on a mixed run: arm the mitigation stack (timeout+retry, plan hold, slope fallback)")
	quick := flag.Bool("quick", false, "with -exp faultmatrix|failover: run the CI-smoke-sized schedule instead of the full one")
	traceRotate := flag.Int64("trace-rotate", 0, "rotate the -trace file once a segment exceeds this many bytes (0 = never); rotated segments move to <file>.1, .2, ... and each re-starts with the meta line")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write a crash-consistent checkpoint every N control boundaries (single mixed runs only; requires -checkpoint-dir)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory checkpoint files are written to")
	resumeDir := flag.String("resume", "", "resume an interrupted mixed run from this checkpoint directory; pass the interrupted run's -trace/-metrics/-decisions paths and the finished outputs match an uninterrupted run byte for byte")
	pprofMode := flag.String("pprof", "", "collect a runtime profile of this invocation: cpu or heap")
	pprofFile := flag.String("pprof-file", "", "profile output path (default qsim-cpu.pprof / qsim-heap.pprof)")
	flag.Parse()

	capable := capabilities[*exp]
	if *backends < 1 {
		fmt.Fprintln(os.Stderr, "-backends must be at least 1")
		os.Exit(2)
	}
	if *backends > 1 && !capable.backends {
		fmt.Fprintln(os.Stderr, "-backends applies to -exp fig4|fig5|fig6|fig7 (use -exp routing for the heterogeneous E14 fleet)")
		os.Exit(2)
	}
	if (*traceFile != "" || *metricsFile != "") && *scenario == "" && *resumeDir == "" && !capable.obs {
		fmt.Fprintln(os.Stderr, "-trace/-metrics apply to a single mixed run: -exp fig4|fig5|fig6|fig7|infeasible or -scenario")
		os.Exit(2)
	}
	if *decisionsFile != "" && *scenario == "" && *resumeDir == "" && !capable.decisions {
		fmt.Fprintln(os.Stderr, "-decisions applies to a single Query Scheduler run: -exp fig6|fig7|infeasible or a query-scheduler -scenario")
		os.Exit(2)
	}
	faults := loadFaults(*faultsFile)
	if faults != nil && *scenario == "" && *resumeDir == "" && !capable.obs {
		// Experiments outside the single-mixed-run pipeline run the plan
		// on one engine: reject a plan that does not fit it before any
		// run starts. runMixed validates its own runs.
		if err := faults.ValidateRoster(1); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	profFile := *pprofFile
	if profFile == "" && *pprofMode != "" {
		profFile = "qsim-" + *pprofMode + ".pprof"
	}
	profStop, err := prof.Start(*pprofMode, profFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	profDone := false
	stopProfile := func() {
		if profDone {
			return
		}
		profDone = true
		if err := profStop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *pprofMode != "" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", profFile)
		}
	}
	defer stopProfile()
	traceCompressed := strings.HasSuffix(*traceFile, ".gz")
	if *checkpointEvery > 0 {
		if *checkpointDir == "" && *resumeDir == "" {
			fmt.Fprintln(os.Stderr, "-checkpoint-every requires -checkpoint-dir")
			os.Exit(2)
		}
		if *scenario == "" && *resumeDir == "" && !capable.obs {
			fmt.Fprintln(os.Stderr, "-checkpoint-every applies to a single mixed run: -exp fig4|fig5|fig6|fig7 or -scenario")
			os.Exit(2)
		}
	}
	if (*checkpointEvery > 0 || *resumeDir != "") && (*traceRotate > 0 || traceCompressed) {
		// Resume checks the trace file up to a checkpointed byte offset
		// and truncates it there; rotation and compression destroy that
		// stable offset.
		fmt.Fprintln(os.Stderr, "checkpointing requires a plain -trace file (no -trace-rotate, no .gz)")
		os.Exit(2)
	}

	// The trace sink handles optional gzip (.gz suffix) and rotation. On
	// -resume the interrupted run's trace file must NOT be truncated here:
	// ResumeMixed reopens it, checks it and truncates it itself.
	var traceSink *trace.Sink
	if *traceFile != "" && *resumeDir == "" {
		s, err := trace.OpenSink(*traceFile, *traceRotate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		traceSink = s
	}
	traceWriter := func() io.Writer {
		if traceSink == nil {
			return nil // a typed-nil *trace.Sink would defeat nil checks
		}
		return traceSink
	}
	metricsSink := openSink(*metricsFile)
	// Like the trace file, the decision log must NOT be truncated on
	// -resume: ResumeMixed reopens it, checks it and truncates it itself.
	var decisionsSink *fileSink
	if *decisionsFile != "" && *resumeDir == "" {
		decisionsSink = openSink(*decisionsFile)
	}
	checkExport := func(res *experiment.MixedResult) {
		if res.ExportErr != nil {
			fmt.Fprintln(os.Stderr, res.ExportErr)
			os.Exit(1)
		}
	}
	closeSinks := func() {
		if traceSink != nil {
			if err := traceSink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *traceFile)
		}
		metricsSink.close()
		decisionsSink.close()
	}
	// A fault-plan crash ends the run mid-simulation: flush the partial
	// artifacts (resume checks them against its re-simulation) and exit
	// distinctly.
	exitIfCrashed := func(res *experiment.MixedResult) {
		if !res.Crashed {
			return
		}
		closeSinks()
		stopProfile() // os.Exit skips the deferred stop
		if *checkpointDir != "" {
			fmt.Fprintf(os.Stderr, "simulation crashed mid-run; resume with -resume %s\n", *checkpointDir)
		} else {
			fmt.Fprintln(os.Stderr, "simulation crashed mid-run (no checkpoints were enabled)")
		}
		os.Exit(3)
	}

	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	out := os.Stdout
	run := func(name string) bool { return *exp == name || *exp == "all" }
	any := false

	writeMixedTables := func(name string, res *experiment.MixedResult) {
		experiment.WriteMixed(out, res)
		if res.CostLimits != nil {
			experiment.WriteCostLimits(out, res)
		}
		if *chart {
			experiment.WriteMixedCharts(out, res)
		}
		writeCSV(name+".csv", experiment.MixedCSV(res))
	}

	if *resumeDir != "" {
		res, err := experiment.ResumeMixed(experiment.ResumeOptions{
			Dir:             *resumeDir,
			TracePath:       *traceFile,
			DecisionsPath:   *decisionsFile,
			Metrics:         metricsSink.writer(),
			CheckpointEvery: *checkpointEvery,
			Warn:            os.Stderr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exitIfCrashed(res)
		checkExport(res)
		writeMixedTables("resume", res)
		closeSinks()
		return
	}

	// runMixed is the one path every single mixed run takes: the
	// experiment's preset, overlaid with the command line, is validated
	// (exit 2), then header is printed and the run executes; a crash
	// exits 3, an export error or a malformed result exits 1.
	runMixed := func(cfg experiment.MixedConfig, header string) *experiment.FleetResult {
		if *seed != 1 {
			cfg.Seed = *seed
		}
		cfg.Faults = faults
		if *backends > 1 {
			cfg.Backends = backend.DefaultSpecs(*backends)
		}
		if *mitigate {
			cfg = cfg.Mitigated()
		}
		cfg.Trace, cfg.Metrics, cfg.Decisions = traceWriter(), metricsSink.writer(), decisionsSink.writer()
		cfg.CheckpointEvery, cfg.CheckpointDir = *checkpointEvery, *checkpointDir
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprint(out, header)
		res := experiment.RunFleet(cfg)
		exitIfCrashed(res.MixedResult)
		checkExport(res.MixedResult)
		if err := res.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return res
	}

	if *scenario != "" {
		sc := loadScenario(*scenario)
		header := ""
		if sc.Name != "" {
			header = fmt.Sprintf("Scenario: %s\n", sc.Name)
		}
		writeMixedTables("scenario", runMixed(sc.MixedConfig, header).MixedResult)
		closeSinks()
		return
	}

	if run("syslimit") {
		any = true
		cfg := experiment.DefaultSaturationConfig()
		cfg.Seed = *seed
		cfg.Parallel = *parallel
		points := experiment.RunSaturation(cfg)
		experiment.WriteSaturation(out, points)
		if *chart {
			experiment.WriteSaturationChart(out, points)
		}
		writeCSV("syslimit.csv", experiment.SaturationCSV(points))
		fmt.Fprintln(out)
	}
	if run("fig2") {
		any = true
		cfg := experiment.DefaultFig2Config()
		cfg.Seed = *seed
		cfg.Parallel = *parallel
		curves := experiment.RunFig2(cfg)
		experiment.WriteFig2(out, curves)
		if *chart {
			experiment.WriteFig2Charts(out, curves)
		}
		writeCSV("fig2.csv", experiment.Fig2CSV(curves))
		fmt.Fprintln(out)
	}
	if run("fig3") {
		any = true
		experiment.WriteSchedule(out, workload.PaperSchedule(), workload.PaperClasses())
		if *chart {
			experiment.WriteScheduleChart(out, workload.PaperSchedule(), workload.PaperClasses())
		}
		fmt.Fprintln(out)
	}
	mixed := func(mode experiment.Mode) *experiment.MixedResult {
		cfg := experiment.DefaultMixedConfig(mode)
		cfg.Experiment = *exp
		return runMixed(cfg, "").MixedResult
	}
	writeMixed := func(name string, res *experiment.MixedResult) {
		experiment.WriteMixed(out, res)
		if *chart {
			experiment.WriteMixedCharts(out, res)
		}
		writeCSV(name+".csv", experiment.MixedCSV(res))
		fmt.Fprintln(out)
	}
	if run("fig4") {
		any = true
		writeMixed("fig4", mixed(experiment.NoControl))
	}
	if run("fig5") {
		any = true
		writeMixed("fig5", mixed(experiment.QPPriority))
	}
	if run("fig6") || run("fig7") {
		any = true
		res := mixed(experiment.QueryScheduler)
		if run("fig6") {
			writeMixed("fig6", res)
		}
		if run("fig7") {
			experiment.WriteCostLimits(out, res)
			if *chart {
				experiment.WriteCostLimitCharts(out, res)
			}
			writeCSV("fig7.csv", experiment.CostLimitsCSV(res))
			fmt.Fprintln(out)
		}
	}
	if *exp == "infeasible" { // not part of "all": deliberately unmeetable goals
		any = true
		res := runMixed(experiment.InfeasibleMixedConfig(), "").MixedResult
		writeMixed("infeasible", res)
		experiment.WriteInfeasibility(out, res)
		fmt.Fprintln(out)
	}
	if *exp == "routing" { // not part of "all": the fleet is its own testbed
		any = true
		res := runMixed(experiment.RoutingMixedConfig(), "")
		writeMixed("routing", res.MixedResult)
		experiment.WriteRouting(out, res)
		fmt.Fprintln(out)
	}
	if *exp == "failover" { // not part of "all": three full fleet runs
		any = true
		fcfg := experiment.FailoverConfig{
			Seed:            *seed,
			Quick:           *quick,
			Trace:           traceWriter(),
			Metrics:         metricsSink.writer(),
			Decisions:       decisionsSink.writer(),
			CheckpointEvery: *checkpointEvery,
			CheckpointDir:   *checkpointDir,
		}
		r := experiment.RunFailover(fcfg)
		checkExport(r.Failover.Result.MixedResult)
		experiment.WriteFailover(out, r)
		writeCSV("failover.csv", experiment.FailoverCSV(r))
		fmt.Fprintln(out)
	}
	if run("overhead") {
		any = true
		experiment.WriteInterception(out, experiment.RunInterceptionOverhead(20, 0.025, *seed, *parallel))
		fmt.Fprintln(out)
	}
	if *exp == "replicated" { // not part of "all": it reruns everything n times
		any = true
		sched := workload.PaperSchedule()
		seeds := experiment.DefaultSeeds(*replications)
		var reps []experiment.Replication
		for _, mode := range []experiment.Mode{
			experiment.NoControl, experiment.QPPriority, experiment.QueryScheduler,
		} {
			reps = append(reps, experiment.RunReplicated(mode, sched, seeds, *parallel))
		}
		experiment.WriteReplication(out, workload.PaperClasses(), reps)
		fmt.Fprintln(out)
	}
	if run("detection") {
		any = true
		dcfg := experiment.DefaultDetectionConfig()
		dcfg.Seed = *seed
		experiment.WriteDetection(out, experiment.RunDetection(dcfg))
		fmt.Fprintln(out)
	}
	if *exp == "detection-replicated" { // not part of "all": reruns detection n times
		any = true
		dcfg := experiment.DefaultDetectionConfig()
		results := experiment.RunDetectionReplicated(dcfg,
			experiment.DefaultSeeds(*replications), *parallel)
		fmt.Fprintf(out, "(counts summed over %d seeds)\n", *replications)
		experiment.WriteDetection(out, results)
		fmt.Fprintln(out)
	}
	if *exp == "ablations" { // not part of "all": eight full QS runs
		any = true
		specs := experiment.AblationSpecs()
		results := experiment.RunAblations(specs, workload.PaperSchedule(), *seed, *parallel)
		experiment.WriteAblations(out, specs, results)
		fmt.Fprintln(out)
	}
	if *exp == "faultmatrix" { // not part of "all": ten full QS runs
		any = true
		fmCfg := experiment.DefaultFaultMatrixConfig()
		if *quick {
			fmCfg = experiment.QuickFaultMatrixConfig()
		}
		fmCfg.Seed = *seed
		fmCfg.Parallel = *parallel
		if faults != nil {
			// A custom plan replaces the built-in scenario set; it still
			// runs both arms.
			fmCfg.Scenarios = []experiment.FaultScenario{{Name: "custom", Plan: *faults}}
		}
		cells := experiment.RunFaultMatrix(fmCfg)
		experiment.WriteFaultMatrix(out, cells)
		writeCSV("faultmatrix.csv", experiment.FaultMatrixCSV(cells))
		fmt.Fprintln(out)
	}
	if *exp == "crashrecovery" { // not part of "all": nine full QS runs
		any = true
		crCfg := experiment.DefaultCrashRecoveryConfig()
		crCfg.Seed = *seed
		crCfg.Parallel = *parallel
		if faults != nil {
			// A custom plan replaces the built-in one; its crash time is
			// still overwritten per cell.
			crCfg.Faults = *faults
		}
		cells := experiment.RunCrashRecovery(crCfg)
		experiment.WriteCrashRecovery(out, cells)
		writeCSV("crashrecovery.csv", experiment.CrashRecoveryCSV(cells))
		fmt.Fprintln(out)
		for _, c := range cells {
			if !c.Recovered() {
				os.Exit(1)
			}
		}
	}
	if run("direct") {
		any = true
		cfg := experiment.DefaultDirectControlConfig()
		cfg.Seed = *seed
		cfg.Parallel = *parallel
		experiment.WriteDirectControl(out, cfg, experiment.RunDirectControl(cfg))
		fmt.Fprintln(out)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	closeSinks()
}
