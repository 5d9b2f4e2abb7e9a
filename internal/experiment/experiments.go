// The paper's experiments, one runner per table/figure. See DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured results.
package experiment

import (
	"fmt"
	"io"
	"math"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/patroller"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ConstantSchedule returns a schedule with fixed client counts covering a
// warm-up window followed by a measurement window. The Schedule type uses
// equal-length periods, so unequal windows are split at their greatest
// common divisor: ConstantSchedule(600, 3600, …) yields seven 600-second
// periods (one warm-up + six measurement). Equal windows produce exactly
// two periods, as before; use MeasureStartPeriod to locate the first
// measurement period in the general case.
func ConstantSchedule(warmup, measure float64, clients map[engine.ClassID]int) workload.Schedule {
	period, nw, nm := splitWindows(warmup, measure)
	sched := workload.Schedule{PeriodSeconds: period}
	for i := 0; i < nw+nm; i++ {
		sched.Clients = append(sched.Clients, cloneCounts(clients))
	}
	return sched
}

// MeasureStartPeriod returns the index of the first measurement period in
// the schedule ConstantSchedule(warmup, measure, …) produces. With equal
// windows this is 1 (period 0 warms up, period 1 measures).
func MeasureStartPeriod(warmup, measure float64) int {
	_, nw, _ := splitWindows(warmup, measure)
	return nw
}

// splitWindows finds the common period length for the two windows and how
// many periods each spans.
func splitWindows(warmup, measure float64) (period float64, warmupPeriods, measurePeriods int) {
	if warmup <= 0 || measure <= 0 {
		panic(fmt.Sprintf("experiment: non-positive window (%v warm-up, %v measure)", warmup, measure))
	}
	//lint:ignore floateq equal-window configs carry the identical literal, so exact equality holds; shortcut skips GCD noise
	if warmup == measure {
		return warmup, 1, 1
	}
	period = floatGCD(warmup, measure)
	warmupPeriods = int(warmup/period + 0.5)
	measurePeriods = int(measure/period + 0.5)
	if warmupPeriods+measurePeriods > 10000 {
		panic(fmt.Sprintf(
			"experiment: windows %v and %v are incommensurable (%d periods); pick window lengths with a reasonable common divisor",
			warmup, measure, warmupPeriods+measurePeriods))
	}
	return period, warmupPeriods, measurePeriods
}

// floatGCD is Euclid's algorithm with a relative tolerance, so 600 and
// 3600 (or 0.3 and 0.5, despite binary rounding) divide cleanly.
func floatGCD(a, b float64) float64 {
	eps := 1e-9 * math.Max(a, b)
	for b > eps {
		a, b = b, math.Mod(a, b)
	}
	return a
}

func cloneCounts(m map[engine.ClassID]int) map[engine.ClassID]int {
	out := make(map[engine.ClassID]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// SaturationPoint is one sample of the system cost-limit calibration curve
// (E0): throughput and performance of an OLAP-only workload at one system
// cost limit.
type SaturationPoint struct {
	Limit           float64
	QueriesPerHour  float64
	MeanRespSeconds float64
	MeanVelocity    float64
}

// SaturationConfig tunes E0.
type SaturationConfig struct {
	Limits      []float64
	OLAPClients int
	Window      float64 // seconds per warm-up/measure window
	Seed        uint64
	// Parallel is the sweep's worker count: 0 = GOMAXPROCS, 1 = serial.
	// Results are identical either way (each limit runs in its own Rig).
	Parallel int
}

// DefaultSaturationConfig sweeps 2k-60k timerons with a saturating client
// population.
func DefaultSaturationConfig() SaturationConfig {
	var limits []float64
	for l := 2000.0; l <= 60000; l += 4000 {
		limits = append(limits, l)
	}
	return SaturationConfig{Limits: limits, OLAPClients: 16, Window: 3600, Seed: 1}
}

// RunSaturation regenerates the paper's calibration step: "plotting the
// curve of the throughput versus the system cost limit" to pick a healthy
// (under-saturated) operating point. The knee of the resulting curve
// motivates SystemCostLimit = 30,000.
func RunSaturation(cfg SaturationConfig) []SaturationPoint {
	return Map(cfg.Parallel, cfg.Limits, func(limit float64, _ int) SaturationPoint {
		sched := ConstantSchedule(cfg.Window, cfg.Window, map[engine.ClassID]int{
			1: cfg.OLAPClients, 2: 0, 3: 0,
		})
		rig := NewRig(cfg.Seed, sched)
		rig.AttachController(NoControl, &core.Config{SystemCostLimit: limit})
		rig.Run()

		agg := rig.Collector.Agg(1, 1) // class 1, measurement period
		return SaturationPoint{
			Limit:           limit,
			QueriesPerHour:  float64(agg.Completed) / cfg.Window * 3600,
			MeanRespSeconds: agg.Resp.Mean(),
			MeanVelocity:    agg.Velocity.Mean(),
		}
	})
}

// Fig2Curve is one legend entry of Figure 2: OLTP average response time as
// a function of the total OLAP cost limit, for a fixed client mix.
type Fig2Curve struct {
	OLTPClients int
	OLAPClients int
	Limits      []float64
	MeanRT      []float64
}

// Fig2Config tunes E1.
type Fig2Config struct {
	// Pairs lists (OLTP clients, OLAP clients) mixes. The paper's legend
	// reads (30,4), (30,8), (30,2), (50,8).
	Pairs  [][2]int
	Limits []float64
	Window float64
	Seed   uint64
	// Parallel is the sweep's worker count: 0 = GOMAXPROCS, 1 = serial.
	Parallel int
}

// DefaultFig2Config matches the paper's Figure 2 axes: OLAP cost limits up
// to 40k timerons.
func DefaultFig2Config() Fig2Config {
	var limits []float64
	for l := 2000.0; l <= 40000; l += 4000 {
		limits = append(limits, l)
	}
	return Fig2Config{
		Pairs:  [][2]int{{30, 4}, {30, 8}, {30, 2}, {50, 8}},
		Limits: limits,
		Window: 2400,
		Seed:   1,
	}
}

// RunFig2 measures OLTP performance against the OLAP cost limit — the
// experiment justifying the linear OLTP performance model. All OLAP
// clients run under a single static cost limit; the OLTP class runs
// unintercepted.
func RunFig2(cfg Fig2Config) []Fig2Curve {
	// Flatten the (mix, limit) grid so every cell is one independent job.
	type cell struct {
		pair  [2]int
		limit float64
	}
	var cells []cell
	for _, pair := range cfg.Pairs {
		for _, limit := range cfg.Limits {
			cells = append(cells, cell{pair, limit})
		}
	}
	rts := Map(cfg.Parallel, cells, func(c cell, _ int) float64 {
		sched := ConstantSchedule(cfg.Window, cfg.Window, map[engine.ClassID]int{
			1: c.pair[1], 2: 0, 3: c.pair[0],
		})
		rig := NewRig(cfg.Seed, sched)
		rig.AttachController(NoControl, &core.Config{SystemCostLimit: c.limit})
		rig.Run()
		return rig.Collector.Agg(1, 3).Resp.Mean()
	})

	var out []Fig2Curve
	for pi, pair := range cfg.Pairs {
		curve := Fig2Curve{OLTPClients: pair[0], OLAPClients: pair[1], Limits: cfg.Limits}
		curve.MeanRT = append(curve.MeanRT, rts[pi*len(cfg.Limits):(pi+1)*len(cfg.Limits)]...)
		out = append(out, curve)
	}
	return out
}

// MixedResult is the outcome of one full 18-period mixed-workload run —
// the data behind Figures 4, 5, 6, and (for Query Scheduler mode) 7.
type MixedResult struct {
	Mode    Mode
	Classes []*workload.Class
	Periods int
	// Metric[i][p] is class i's goal-metric value in period p (velocity
	// for OLAP classes, mean response time for the OLTP class).
	Metric [][]float64
	// Measurable[i][p] reports whether the class completed anything in p.
	Measurable [][]bool
	// GoalMet[i][p] reports goal attainment (false when unmeasurable).
	GoalMet [][]bool
	// Satisfaction[i] is the fraction of measurable periods class i met
	// its goal in.
	Satisfaction []float64
	// Completed[i][p] counts class i completions in period p.
	Completed [][]int
	// RespP95[i][p] is the 95th-percentile response time of class i in
	// period p (0 when nothing completed) — tail visibility the paper's
	// mean-based goals hide.
	RespP95 [][]float64
	// CostLimits[i][p], present only in Query Scheduler mode, is the mean
	// cost limit assigned to class i during period p (Figure 7), summed
	// over backends.
	CostLimits [][]float64
	// PlanHistory, present only in one-backend Query Scheduler runs, is
	// the full control-interval record (FleetResult.Histories has every
	// backend's).
	PlanHistory []core.PlanRecord
	// Pending[i][p] counts class i queries submitted by the end of period
	// p that had not completed by then (still queued or running).
	Pending [][]int
	// ExportErr carries the first trace/metrics export failure, when the
	// run was configured with observability writers. The simulation
	// itself still completed; callers decide whether a truncated export
	// is fatal.
	ExportErr error
	// Faults counts what the fault injector actually did (zero when the
	// run had no fault plan).
	Faults fault.Stats
	// PatStats is the patroller's cumulative counters — interceptions,
	// failures, retries, timeouts — for fault-matrix reporting.
	PatStats patroller.Stats
	// Crashed reports that a fault-plan crash stopped the run mid-
	// simulation. The tables above cover only the completed prefix;
	// resume the run from its checkpoints with ResumeMixed.
	Crashed bool
}

// MixedConfig tunes the mixed-workload experiments.
type MixedConfig struct {
	Mode  Mode
	Sched workload.Schedule
	Seed  uint64
	// QS optionally overrides the Query Scheduler configuration.
	QS *core.Config
	// Classes optionally replaces the paper's three service classes.
	Classes []*workload.Class
	// Experiment names the run in the trace header (defaults to the
	// mode's name).
	Experiment string
	// Trace, when non-nil, receives the run's lossless JSONL event
	// stream (readable by cmd/qtrace).
	Trace io.Writer
	// Metrics, when non-nil, receives the run's metrics registry as
	// Prometheus-style text exposition after the run.
	Metrics io.Writer
	// Decisions, when non-nil, receives the control plane's decision
	// audit log as JSONL (readable by cmd/qreport). Query Scheduler
	// mode only — the other controllers make no per-tick decisions.
	Decisions io.Writer
	// Faults, when non-nil and non-empty, injects the fault plan into
	// the run's engine and (in Query Scheduler mode) monitor.
	Faults *fault.Plan
	// Retry, when non-nil, arms the patroller's per-query timeout and
	// bounded-retry mitigation. If its RefreshCost is nil and a fault
	// plan is active, retries are re-costed through the injector's
	// misestimation factors.
	Retry *patroller.RetryPolicy
	// CheckpointEvery, when positive, writes a crash-consistent checkpoint
	// into CheckpointDir every N control boundaries (control ticks in
	// Query Scheduler mode, schedule periods otherwise). See
	// checkpoint.go; resume with ResumeMixed.
	CheckpointEvery int
	// CheckpointDir is where checkpoint files land; required when
	// CheckpointEvery is set.
	CheckpointDir string
	// StreamingClients builds the run's client pool with the streaming
	// generator: clients materialize lazily on first activation instead of
	// up front. Behaviour is byte-identical to the eager pool; the point is
	// memory — million-client schedules only pay for the clients a period
	// actually activates.
	StreamingClients bool
	// Backends is the roster: one spec per backend, each with its own
	// engine, patroller and controller. Nil means one paper-default
	// backend. Two or more run behind the routing tier; in Query
	// Scheduler mode the hierarchical planner splits SystemCostLimit
	// across them by routed demand, and the static controllers split it
	// equally. Faults and Retry apply per backend: every backend gets its
	// own injector (a fleet seeds each per roster ID) and retry policy,
	// and backend-scoped fault kinds (crash/brownout/dropout) target
	// roster IDs directly.
	Backends []backend.Spec
	// DisableFleetMitigation turns off the fleet's failover response:
	// backend crashes still stall their engines, but the router is never
	// told (no re-dispatch, no scoring removal) and the planner neither
	// re-splits the budget away from the dead backend nor migrates
	// demand on infeasibility. The control arm of the failover
	// experiment; pointless outside it.
	DisableFleetMitigation bool
}

// DefaultMixedConfig runs the given mode over the paper's Figure 3
// schedule (18 periods, 24 hours).
func DefaultMixedConfig(mode Mode) MixedConfig {
	return MixedConfig{Mode: mode, Sched: workload.PaperSchedule(), Seed: 1}
}

// RunMixed executes one mixed-workload experiment.
func RunMixed(cfg MixedConfig) *MixedResult {
	return RunFleet(cfg).MixedResult
}

// fillMixedTables populates the per-class period tables of res from the
// global collector, which folds every backend's completions into one
// view.
func fillMixedTables(res *MixedResult, col *metrics.Collector) {
	for _, cl := range res.Classes {
		metricRow := make([]float64, res.Periods)
		measurableRow := make([]bool, res.Periods)
		metRow := make([]bool, res.Periods)
		completedRow := make([]int, res.Periods)
		p95Row := make([]float64, res.Periods)
		pendingRow := make([]int, res.Periods)
		for p := 0; p < res.Periods; p++ {
			v, ok := col.Metric(p, cl.ID)
			metricRow[p] = v
			measurableRow[p] = ok
			if ok {
				metRow[p] = cl.Goal.Met(v)
			}
			completedRow[p] = col.Agg(p, cl.ID).Completed
			p95Row[p] = col.RespQuantile(p, cl.ID, 0.95)
			pendingRow[p] = col.Pending(p, cl.ID)
		}
		res.Metric = append(res.Metric, metricRow)
		res.Measurable = append(res.Measurable, measurableRow)
		res.GoalMet = append(res.GoalMet, metRow)
		res.Completed = append(res.Completed, completedRow)
		res.RespP95 = append(res.RespP95, p95Row)
		res.Pending = append(res.Pending, pendingRow)
		res.Satisfaction = append(res.Satisfaction, col.GoalSatisfaction(cl.ID))
	}
}

// averageLimitsPerPeriod folds per-interval plans into per-period means —
// the series Figure 7 plots.
func averageLimitsPerPeriod(hist []core.PlanRecord, classes []*workload.Class,
	sched workload.Schedule) [][]float64 {

	sums := make([][]stats.Summary, len(classes))
	for i := range sums {
		sums[i] = make([]stats.Summary, sched.Periods())
	}
	for _, rec := range hist {
		// A plan chosen at time T governs the interval starting at T;
		// attribute it to the period containing T.
		p := sched.PeriodAt(rec.Time)
		for i, cl := range classes {
			sums[i][p].Add(rec.Limits[cl.ID])
		}
	}
	out := make([][]float64, len(classes))
	for i := range sums {
		out[i] = make([]float64, sched.Periods())
		for p := range sums[i] {
			out[i][p] = sums[i][p].Mean()
		}
	}
	return out
}

// InterceptionOverheadResult quantifies the paper's Section 3 argument:
// intercepting sub-second OLTP queries costs more than running them.
type InterceptionOverheadResult struct {
	OLTPClients      int
	DirectMeanRT     float64 // OLTP intercepted and managed (with overhead)
	UnmanagedMeanRT  float64 // OLTP left alone (the paper's choice)
	OverheadCPU      float64
	MeanOLTPExecTime float64
}

// RunInterceptionOverhead compares the OLTP class intercepted-with-
// overhead against the unmanaged baseline, holding everything else fixed.
// The two arms run on the worker pool (0 workers = GOMAXPROCS).
func RunInterceptionOverhead(oltpClients int, overheadCPU float64, seed uint64, parallel int) InterceptionOverheadResult {
	window := 1200.0
	run := func(manage bool) (meanRT, meanExec float64) {
		sched := ConstantSchedule(window, window, map[engine.ClassID]int{
			1: 0, 2: 0, 3: oltpClients,
		})
		rig := NewRig(seed, sched)
		if manage {
			pat := patroller.New(rig.Eng, 3)
			pat.InterceptOverheadCPU = overheadCPU
			pat.SetPolicy(patroller.SystemLimit{Limit: SystemCostLimit})
		}
		rig.Run()
		agg := rig.Collector.Agg(1, 3)
		return agg.Resp.Mean(), agg.Exec.Mean()
	}
	type arm struct{ rt, exec float64 }
	arms := Map(parallel, []bool{true, false}, func(manage bool, _ int) arm {
		rt, exec := run(manage)
		return arm{rt, exec}
	})
	direct := arms[0].rt
	unmanaged, exec := arms[1].rt, arms[1].exec
	return InterceptionOverheadResult{
		OLTPClients:      oltpClients,
		DirectMeanRT:     direct,
		UnmanagedMeanRT:  unmanaged,
		OverheadCPU:      overheadCPU,
		MeanOLTPExecTime: exec,
	}
}

// Validate sanity-checks a mixed result's shape; used by tests and by
// cmd/qsim before printing.
func (r *MixedResult) Validate() error {
	if len(r.Metric) != len(r.Classes) {
		return fmt.Errorf("experiment: %d metric rows for %d classes", len(r.Metric), len(r.Classes))
	}
	for i, row := range r.Metric {
		if len(row) != r.Periods {
			return fmt.Errorf("experiment: class %d has %d periods, want %d", i, len(row), r.Periods)
		}
	}
	return nil
}
