package cli

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// params maps each sweepable parameter to the Query Scheduler config
// field it sets; oltp-window, an integer, has none (see setParam).
var params = map[string]func(*core.Config) *float64{
	"control-interval":  func(c *core.Config) *float64 { return &c.ControlInterval },
	"snapshot-interval": func(c *core.Config) *float64 { return &c.SnapshotInterval },
	"plan-step":         func(c *core.Config) *float64 { return &c.PlanStep },
	"min-olap-limit":    func(c *core.Config) *float64 { return &c.MinOLAPLimit },
	"system-cost-limit": func(c *core.Config) *float64 { return &c.SystemCostLimit },
	"oltp-window":       nil,
}

// setParam sets the swept parameter to v in c.
func setParam(c *core.Config, param string, v float64) error {
	if field := params[param]; field != nil {
		*field(c) = v
		return nil
	}
	if v < 2 || math.Mod(v, 1) != 0 {
		return fmt.Errorf("oltp-window must be an integer >= 2")
	}
	c.OLTP.Window = int(v)
	return nil
}

// qsweepCmd is one parsed and checked qsweep command line.
type qsweepCmd struct {
	runFlags
	param  string
	sweep  []float64
	resume bool
	cfgs   []experiment.MixedConfig // one per swept value
}

// Qsweep sweeps one Query Scheduler parameter over the paper workload
// and tabulates goal satisfaction per value.
func Qsweep(args []string, stdout, stderr io.Writer) int {
	c, err := parseQsweep(args, stderr)
	if err == nil {
		err = c.profile("qsweep", stderr, func() error { return c.run(stdout, stderr) })
	}
	return exitCode(stderr, err)
}

// parseQsweep parses the flags, the parameter and its values, reads the
// fault plan, and builds and validates every value's run, so a bad one
// aborts before any run starts.
func parseQsweep(args []string, stderr io.Writer) (*qsweepCmd, error) {
	c := &qsweepCmd{}
	fs := newFlagSet("qsweep", stderr)
	fs.StringVar(&c.param, "param", "", "parameter to sweep (see -help)")
	values := fs.String("values", "", "comma-separated values")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.parallel, "parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&c.trace, "trace", "", "write each run's JSONL event trace to <prefix><value>.jsonl (inspect with qtrace)")
	fs.StringVar(&c.metrics, "metrics", "", "write each run's metrics exposition to <prefix><value>.prom")
	fs.StringVar(&c.decisions, "decisions", "", "write each run's decision audit log to <prefix><value>.jsonl (inspect with qreport)")
	fs.StringVar(&c.pprofMode, "pprof", "", "collect a runtime profile of this invocation: cpu or heap")
	fs.StringVar(&c.pprofFile, "pprof-file", "", "profile output path (default qsweep-cpu.pprof / qsweep-heap.pprof)")
	fs.StringVar(&c.faultsFile, "faults", "", "inject the deterministic fault plan from this JSON file into every swept run (see internal/fault)")
	fs.BoolVar(&c.mitigate, "mitigate", false, "arm the mitigation stack (timeout+retry, plan hold, slope fallback) in every swept run")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 0, "write a crash-consistent checkpoint every N control boundaries into a per-value subdirectory of -checkpoint-dir")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "root directory for per-value checkpoint subdirectories")
	fs.BoolVar(&c.resume, "resume", false, "resume swept values that left a checkpoint under -checkpoint-dir (values without one run fresh); pass the same -param/-values/-trace/-metrics as the interrupted sweep")
	fs.IntVar(&c.backends, "backends", 1, "run every swept value on N identical backends behind the routing tier (1 = the paper's single engine)")
	if _, err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if (c.checkpointEvery > 0 || c.resume) && c.checkpointDir == "" {
		return nil, usagef("-checkpoint-every/-resume require -checkpoint-dir")
	}
	if c.backends < 1 {
		return nil, usagef("-backends must be at least 1")
	}
	if err := c.loadFaults(); err != nil {
		return nil, err
	}
	if _, ok := params[c.param]; !ok {
		var names []string
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, usagef("unknown -param %q; choose one of: %s", c.param, strings.Join(names, ", "))
	}
	for _, raw := range strings.Split(*values, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, usagef("bad value %q: %v", raw, err)
		}
		c.sweep = append(c.sweep, v)
	}
	if len(c.sweep) == 0 {
		return nil, usagef("no -values given")
	}
	for _, v := range c.sweep {
		qc := core.DefaultConfig()
		qc.SystemCostLimit = experiment.SystemCostLimit
		if err := setParam(&qc, c.param, v); err != nil {
			return nil, usagef("%w", err)
		}
		ckDir := ""
		if c.checkpointDir != "" {
			ckDir = filepath.Join(c.checkpointDir, c.param+"-"+formatValue(v))
		}
		cfg, err := c.build(experiment.MixedConfig{
			Mode:       experiment.QueryScheduler,
			Sched:      workload.PaperSchedule(),
			Seed:       c.seed,
			QS:         &qc,
			Experiment: fmt.Sprintf("qsweep %s=%g", c.param, v),
		}, ckDir)
		if err != nil {
			return nil, err
		}
		c.cfgs = append(c.cfgs, cfg)
	}
	return c, nil
}

// formatValue renders a swept value the way file and directory names
// carry it.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (c *qsweepCmd) run(stdout, stderr io.Writer) (err error) {
	// With -resume, a value resumes from its newest checkpoint if that
	// records the run the command line builds; one without runs fresh.
	resume := make([]int, len(c.sweep))
	for i, v := range c.sweep {
		if !c.resume {
			break
		}
		ck, idx, err := experiment.CheckpointConfig(c.cfgs[i].CheckpointDir, stderr)
		switch {
		case errors.Is(err, fs.ErrNotExist) || errors.Is(err, experiment.ErrNoCheckpoint):
		case err != nil:
			return fmt.Errorf("%s=%g: %w", c.param, v, err)
		case ck.Validate() != nil:
			return usagef("%s=%g: %w", c.param, v, ck.Validate())
		case !sameRun(ck, c.cfgs[i]):
			return usagef("%s=%g: the checkpoint in %s is of another run than this command line builds; resume with the interrupted sweep's flags", c.param, v, c.cfgs[i].CheckpointDir)
		default:
			resume[i] = idx
		}
	}
	classes := workload.PaperClasses()
	fmt.Fprintf(stdout, "Sweeping %s over the paper workload (seed %d)\n\n", c.param, c.seed)
	fmt.Fprintf(stdout, "%14s", c.param)
	for _, cl := range classes {
		fmt.Fprintf(stdout, " %12s", cl.Name+" %")
	}
	fmt.Fprintf(stdout, " %14s\n", "oltp-heavy(ms)")

	// One set of export files per swept value, created before the
	// (possibly parallel) runs so failures abort early and workers never
	// share one. A value with a checkpoint to resume keeps its
	// interrupted trace and decision log.
	exs := make([]*exports, len(c.sweep))
	defer func() {
		for _, ex := range exs {
			if ex != nil {
				closeSinks(stderr, err, ex.trace, ex.metrics, ex.decisions)
			}
		}
	}()
	for i, v := range c.sweep {
		path := func(prefix, ext string) string {
			if prefix == "" {
				return ""
			}
			return prefix + formatValue(v) + ext
		}
		if exs[i], err = openExports(path(c.trace, ".jsonl"), path(c.metrics, ".prom"), path(c.decisions, ".jsonl"), 0, resume[i]); err != nil {
			return err
		}
	}
	errs := make([]error, len(c.sweep)) // each worker owns its index
	results := experiment.Map(c.parallel, c.sweep, func(_ float64, i int) *experiment.FleetResult {
		res, err := exs[i].run(c.cfgs[i])
		errs[i] = err
		return res
	})
	// Flush every value's exports before reporting: a crashed value must
	// not cost the others their buffered exports, and its own partial
	// trace should reach disk (a -resume regenerates whatever did not).
	for _, ex := range exs {
		if err := closeSinks(stderr, nil, ex.trace, ex.decisions, ex.metrics); err != nil {
			return err
		}
	}
	for i, v := range c.sweep {
		if errs[i] != nil {
			return fmt.Errorf("%s=%g: %w", c.param, v, errs[i])
		}
		res := results[i]
		crash := fmt.Sprintf("%s=%g: run crashed mid-simulation; re-run with -resume to finish it", c.param, v)
		if err := checkResult(res.MixedResult, crash); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%14g", v)
		for ci := range classes {
			fmt.Fprintf(stdout, " %11.0f%%", 100*res.Satisfaction[ci])
		}
		if heavy, ok := res.HeavyOLTP(); ok {
			fmt.Fprintf(stdout, " %14.0f", heavy*1000)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// sameRun reports whether a checkpoint's config and cfg, its writers and
// checkpointing cleared as a checkpoint's are, encode to the same gob.
func sameRun(ck, cfg experiment.MixedConfig) bool {
	cfg.Trace, cfg.Metrics, cfg.Decisions = nil, nil, nil
	cfg.CheckpointEvery, cfg.CheckpointDir = 0, ""
	var a, b bytes.Buffer
	return gob.NewEncoder(&a).Encode(ck) == nil && gob.NewEncoder(&b).Encode(cfg) == nil && bytes.Equal(a.Bytes(), b.Bytes())
}
