package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/solver"
	"repro/internal/workload"
)

// fleetBackends is the size of the fleet4-faults roster. The fleet
// carries fleetLoad times the paper's clients, half its capacity, so
// that it absorbs the crash and the brownout. At three or four times the
// clients the crash tips some seeds into a backlog whose size depends on
// the seed: completions per pass then differ by up to 40% between seeds,
// and response time and attainment by a fifth.
const (
	fleetBackends = 4
	fleetLoad     = 2
)

// fleetPeriodSeconds shortens the fleet workload's periods: the paper's
// 80-minute periods with twice the clients would take half a minute of
// CPU per pass. Client counts keep the Figure 3 shape. At 400 s periods
// each (class, period) cell saw so few OLAP completions that velocity and
// response time moved by a tenth between seeds; at 800 s by 3-4%.
const fleetPeriodSeconds = 800

// observedPeriods is the schedule prefix paper-qs-observed runs: the
// trace triples the CPU per query, so the whole day would not fit a pass
// into a run.
const observedPeriods = 6

// outputs are the byte-counting sinks a workload's observability streams
// are written to, plus the directory checkpoints land in.
type outputs struct {
	trace, metrics, decisions byteCounter
	ckptDir                   string
}

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	name string
	// sameTablesAs names the workload whose simulated period tables this
	// one must reproduce exactly over its own schedule and seed. Its pins
	// are computed by running that workload's configuration.
	sameTablesAs string
	sched        workload.Schedule
	// config builds the RunMixed configuration of one pass. out nil turns
	// every stream off; tick, when non-nil, is called from a seam the
	// simulation reaches about once per control tick.
	config func(seed uint64, sched workload.Schedule, out *outputs, tick func()) experiment.MixedConfig
}

// setupSchedule is the schedule of one set-up measurement: the first
// period's clients, over a span so short that no event after the
// initial submissions fires. RunMixed on it builds the whole stack,
// admits the first queries and collects an empty result.
func (w *benchWorkload) setupSchedule() workload.Schedule {
	return workload.Schedule{PeriodSeconds: 1e-3, Clients: w.sched.Clients[:1]}
}

var workloads = []*benchWorkload{
	{
		name:   "paper-qs",
		sched:  workload.PaperSchedule(),
		config: paperConfig,
	},
	{
		name:         "paper-qs-observed",
		sameTablesAs: "paper-qs",
		sched:        prefix(workload.PaperSchedule(), observedPeriods),
		config: func(seed uint64, sched workload.Schedule, out *outputs, tick func()) experiment.MixedConfig {
			cfg := paperConfig(seed, sched, nil, nil)
			if out != nil {
				cfg.Trace = &out.trace
				cfg.Metrics = &out.metrics
				cfg.Decisions = tickWriter(&out.decisions, tick)
				if out.ckptDir != "" {
					cfg.CheckpointEvery = 100
					cfg.CheckpointDir = out.ckptDir
				}
			}
			return cfg
		},
	},
	{
		name:   "fleet4-faults",
		sched:  scaledSchedule(workload.PaperSchedule(), fleetLoad, fleetPeriodSeconds),
		config: fleetConfig,
	},
}

// paperConfig is the paper's Query Scheduler run. A tick hook wraps the
// solver, which the scheduler calls once per control tick; the wrapper
// returns the inner solver's plan unchanged.
func paperConfig(seed uint64, sched workload.Schedule, _ *outputs, tick func()) experiment.MixedConfig {
	cfg := experiment.MixedConfig{Mode: experiment.QueryScheduler, Sched: sched, Seed: seed}
	if tick != nil {
		qc := core.DefaultConfig()
		qc.SystemCostLimit = experiment.SystemCostLimit
		qc.Solver = tickSolver{inner: qc.Solver, tick: tick}
		cfg.QS = &qc
	}
	return cfg
}

type tickSolver struct {
	inner solver.Solver
	tick  func()
}

func (s tickSolver) Solve(p solver.Problem, start solver.Plan) solver.Plan {
	s.tick()
	return s.inner.Solve(p, start)
}

// tickWriter returns w, calling tick before every Write when tick is
// non-nil. The decision log writes one record per control tick.
func tickWriter(w io.Writer, tick func()) io.Writer {
	if tick == nil {
		return w
	}
	return tickingWriter{w, tick}
}

type tickingWriter struct {
	w    io.Writer
	tick func()
}

func (t tickingWriter) Write(p []byte) (int, error) {
	t.tick()
	return t.w.Write(p)
}

// prefix returns the first n periods of s.
func prefix(s workload.Schedule, n int) workload.Schedule {
	return workload.Schedule{PeriodSeconds: s.PeriodSeconds, Clients: s.Clients[:n]}
}

// scaledSchedule multiplies every client count of s by k and sets the
// period length.
func scaledSchedule(s workload.Schedule, k int, periodSeconds float64) workload.Schedule {
	out := workload.Schedule{PeriodSeconds: periodSeconds}
	for _, per := range s.Clients {
		m := make(map[engine.ClassID]int, len(per))
		for c, n := range per {
			m[c] = n * k
		}
		out.Clients = append(out.Clients, m)
	}
	return out
}

// fleetPlan is the fleet4-faults fault plan over a schedule of length d:
// backend 2 crashes at 20% and recovers at 45%, backend 3 runs at half
// speed from 55% to 80%, and class 1 aborts 2% of its executions
// throughout.
func fleetPlan(seed uint64, d float64) *fault.Plan {
	return &fault.Plan{
		Seed:             seed,
		AbortRate:        map[engine.ClassID]float64{1: 0.02},
		BackendCrashes:   []fault.BackendCrash{{Backend: 2, At: 0.20 * d, RecoverAt: 0.45 * d}},
		BackendBrownouts: []fault.BackendSlowdown{{Backend: 3, Window: fault.Window{Start: 0.55 * d, End: 0.80 * d}, Factor: 0.5}},
	}
}

func fleetConfig(seed uint64, sched workload.Schedule, out *outputs, tick func()) experiment.MixedConfig {
	qc := core.DefaultConfig()
	qc.SystemCostLimit = fleetBackends * experiment.SystemCostLimit
	rp := experiment.DefaultRetryPolicy()
	// The fault windows are laid over the whole workload schedule even
	// when sched is the set-up schedule, so set-up builds the same
	// injectors a pass does.
	full := scaledSchedule(workload.PaperSchedule(), fleetLoad, fleetPeriodSeconds)
	cfg := experiment.MixedConfig{
		Mode:     experiment.QueryScheduler,
		Sched:    sched,
		Seed:     seed,
		QS:       &qc,
		Backends: backend.DefaultSpecs(fleetBackends),
		Faults:   fleetPlan(seed, full.Duration()),
		Retry:    &rp,
	}
	if out != nil {
		cfg.Metrics = &out.metrics
		cfg.Decisions = tickWriter(&out.decisions, tick)
	}
	return cfg
}

// reference returns the configuration a pin or cross-check runs for
// this workload: the table owner's, over this workload's schedule, with
// every stream off.
func (w *benchWorkload) reference(seed uint64) experiment.MixedConfig {
	owner := w
	if w.sameTablesAs != "" {
		owner, _ = workloadByName(w.sameTablesAs)
	}
	return owner.config(seed, w.sched, nil, nil)
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scratchDir returns a fresh per-process directory under .bench_build in
// the working directory, for checkpoint files and span dumps.
func scratchDir(kind string) (string, error) {
	dir := filepath.Join(".bench_build", kind, fmt.Sprintf("%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
