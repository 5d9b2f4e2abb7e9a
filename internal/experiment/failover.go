// E15: the fleet failover experiment. Three equal backends serve a
// mixed workload sized so that three boxes meet every goal but two
// cannot; one backend is crashed mid-run and never recovers. Three arms
// separate the mechanisms:
//
//   - baseline: no fault — the attainment ceiling.
//   - failover: the crash with mitigation on. The router evacuates and
//     re-dispatches the dead backend's queries, the planner moves its
//     whole budget to the survivors, and migration-before-shedding
//     drains the binding class off an infeasible survivor. The
//     highest-importance class should hold near the baseline.
//   - no-mitigation: the same crash with the failover response off. The
//     engine stalls but the router keeps routing into the black hole
//     and the planner keeps reserving the dead backend's budget share,
//     so the survivors run half the fleet's demand on a third of its
//     budget — the critical class visibly collapses.
//
// The headline metric is delivered attainment: of every critical-class
// query submitted during the measurement window, the fraction that
// completed in a period where the class met its goal. Queries swallowed
// by the dead backend (still pending at run end) count as misses, so a
// black-holed closed loop cannot hide behind the response times of the
// queries that escaped it.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/workload"
)

// FailoverConfig tunes the E15 run.
type FailoverConfig struct {
	Seed uint64
	// Quick shrinks the schedule to CI-smoke size.
	Quick bool
	// Trace/Metrics/Decisions attach observability to the failover arm
	// only (the arm the exports are about; the other two arms are
	// controls).
	Trace, Metrics, Decisions io.Writer
	// CheckpointEvery/CheckpointDir checkpoint the failover arm.
	CheckpointEvery int
	CheckpointDir   string
}

// FailoverClasses returns the E15 roster: a sheddable batch class, the
// critical OLAP class carrying the top importance, and an OLTP class in
// between. The solver's importance ordering is what the mitigation arm
// is supposed to protect.
func FailoverClasses() []*workload.Class {
	return []*workload.Class{
		{ID: 1, Name: "Batch", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.30}, Importance: 1},
		{ID: 2, Name: "Critical", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.40}, Importance: 3},
		{ID: 3, Name: "OLTP", Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.25}, Importance: 2},
	}
}

// FailoverBackends returns the E15 roster: three paper-default
// backends, with backend 2 — the one the fault plan kills — carrying a
// routing affinity for the critical class. The affinity concentrates
// the class the fleet most needs to protect on the backend about to
// die, which is exactly the hard case: the mitigation arm must
// evacuate and re-home those clients, while the no-mitigation arm
// black-holes them.
func FailoverBackends() []backend.Spec {
	specs := backend.DefaultSpecs(3)
	specs[1].Affinity = map[engine.ClassID]float64{2: 2}
	return specs
}

// failoverShape is the schedule/crash geometry of one E15 variant.
type failoverShape struct {
	warmup, measure float64
	crashAt         float64
	clients         map[engine.ClassID]int
}

func failoverShapeFor(quick bool) failoverShape {
	if quick {
		return failoverShape{
			warmup: 300, measure: 900, crashAt: 450,
			clients: map[engine.ClassID]int{1: 8, 2: 6, 3: 24},
		}
	}
	return failoverShape{
		warmup: 600, measure: 3600, crashAt: 1200,
		clients: map[engine.ClassID]int{1: 12, 2: 8, 3: 36},
	}
}

// FailoverPlan returns the E15 fault plan: backend 2 crashes at crashAt
// and never recovers.
func FailoverPlan(seed uint64, quick bool) fault.Plan {
	return fault.Plan{
		Seed:           seed,
		BackendCrashes: []fault.BackendCrash{{Backend: 2, At: failoverShapeFor(quick).crashAt}},
	}
}

// FailoverMixedConfig builds one E15 arm's config. plan nil is the
// baseline; the control arm is the failover arm's config run without
// mitigation.
func FailoverMixedConfig(cfg FailoverConfig, plan *fault.Plan) MixedConfig {
	shape := failoverShapeFor(cfg.Quick)
	// A three-backend fleet gets double the single-engine budget: the
	// point of E15 is capacity loss, so the healthy fleet must start
	// comfortable — every goal met — for the crash to be what breaks it.
	qc := core.DefaultConfig()
	qc.SystemCostLimit = 2 * SystemCostLimit
	return MixedConfig{
		Mode:       QueryScheduler,
		Sched:      ConstantSchedule(shape.warmup, shape.measure, shape.clients),
		Classes:    FailoverClasses(),
		Seed:       cfg.Seed,
		QS:         &qc,
		Experiment: "failover",
		Backends:   FailoverBackends(),
		Faults:     plan,
	}
}

// FailoverArm is one of the three runs plus its headline number.
type FailoverArm struct {
	Name   string
	Result *FleetResult
	// Attainment is the critical class's delivered attainment over the
	// measurement periods.
	Attainment float64
	// Completed/Pending are the critical class's measurement-window
	// completions and the queries still stuck at run end.
	Completed int
	Pending   int
}

// FailoverResult is the three-arm comparison.
type FailoverResult struct {
	Classes  []*workload.Class
	Critical *workload.Class
	CrashAt  float64
	Baseline FailoverArm
	Failover FailoverArm
	NoMitig  FailoverArm
}

// Retention returns an arm's attainment relative to the baseline's
// (1 when the baseline itself delivered nothing).
func (r *FailoverResult) Retention(arm FailoverArm) float64 {
	if r.Baseline.Attainment <= 0 {
		return 1
	}
	return arm.Attainment / r.Baseline.Attainment
}

// criticalClass picks the highest-importance class (lowest ID on ties).
func criticalClass(classes []*workload.Class) *workload.Class {
	var best *workload.Class
	for _, c := range classes {
		if best == nil || c.Importance > best.Importance {
			best = c
		}
	}
	return best
}

// deliveredAttainment computes the E15 headline metric for one class:
// goal-met completions over all completions plus end-of-run pending,
// measurement periods only. A query that never came back (black-holed
// on a dead backend) is a miss, not a statistical no-show.
func deliveredAttainment(res *MixedResult, class engine.ClassID, fromPeriod int) (att float64, done, pending int) {
	ci := -1
	for i, c := range res.Classes {
		if c.ID == class {
			ci = i
		}
	}
	if ci < 0 {
		return 0, 0, 0
	}
	met := 0
	for p := fromPeriod; p < res.Periods; p++ {
		n := res.Completed[ci][p]
		done += n
		if res.GoalMet[ci][p] {
			met += n
		}
	}
	pending = res.Pending[ci][res.Periods-1]
	if done+pending == 0 {
		return 0, 0, 0
	}
	return float64(met) / float64(done+pending), done, pending
}

// RunFailover executes the three E15 arms.
func RunFailover(cfg FailoverConfig) *FailoverResult {
	shape := failoverShapeFor(cfg.Quick)
	classes := FailoverClasses()
	critical := criticalClass(classes)
	from := MeasureStartPeriod(shape.warmup, shape.measure)
	plan := FailoverPlan(cfg.Seed, cfg.Quick)

	arm := func(name string, p *fault.Plan, mitigate, instrumented bool) FailoverArm {
		mc := FailoverMixedConfig(cfg, p)
		if instrumented {
			mc.Trace = cfg.Trace
			mc.Metrics = cfg.Metrics
			mc.Decisions = cfg.Decisions
			mc.CheckpointEvery = cfg.CheckpointEvery
			mc.CheckpointDir = cfg.CheckpointDir
		}
		res := runFleet(mc, mitigate)
		a := FailoverArm{Name: name, Result: res}
		a.Attainment, a.Completed, a.Pending = deliveredAttainment(res.MixedResult, critical.ID, from)
		return a
	}

	return &FailoverResult{
		Classes:  classes,
		Critical: critical,
		CrashAt:  shape.crashAt,
		Baseline: arm("baseline", nil, true, false),
		Failover: arm("failover", &plan, true, true),
		NoMitig:  arm("no-mitigation", &plan, false, false),
	}
}

// WriteFailover prints the E15 verdict table.
func WriteFailover(w io.Writer, r *FailoverResult) {
	fmt.Fprintf(w, "Fleet failover (3 backends, backend 2 crashes at t=%.0fs, never recovers):\n", r.CrashAt)
	fmt.Fprintf(w, "critical class: %s (importance %d, %s goal)\n",
		r.Critical.Name, r.Critical.Importance, r.Critical.Goal.Metric)
	fmt.Fprintf(w, "%-14s %12s %10s %8s %10s\n",
		"arm", "attainment", "completed", "pending", "retention")
	for _, arm := range []FailoverArm{r.Baseline, r.Failover, r.NoMitig} {
		fmt.Fprintf(w, "%-14s %11.1f%% %10d %8d %9.1f%%\n",
			arm.Name, 100*arm.Attainment, arm.Completed, arm.Pending, 100*r.Retention(arm))
	}
	fmt.Fprintf(w, "per-backend routed queries (failover arm):")
	for i, n := range r.Failover.Result.Routed {
		fmt.Fprintf(w, " b%d=%d", i+1, n)
	}
	fmt.Fprintln(w)
}

// FailoverCSV renders the verdict table as CSV.
func FailoverCSV(r *FailoverResult) string {
	s := "arm,attainment,completed,pending,retention\n"
	for _, arm := range []FailoverArm{r.Baseline, r.Failover, r.NoMitig} {
		s += fmt.Sprintf("%s,%.4f,%d,%d,%.4f\n",
			arm.Name, arm.Attainment, arm.Completed, arm.Pending, r.Retention(arm))
	}
	return s
}
