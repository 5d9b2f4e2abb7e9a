// The run pipeline every mixed-workload experiment goes through, on one
// backend or many: build the rig, attach observability, run to the end
// of the schedule in checkpointable boundaries, checkpoint, collect —
// and, from a checkpoint, resume (checkpoint.go).
//
// The control plane is hierarchical on a Query Scheduler fleet: the
// fleet planner (router.Planner) splits the global SystemCostLimit
// across backends proportionally to their smoothed routed-cost demand,
// and each backend's own Query Scheduler runs the per-class solver,
// unchanged, against its share. The static controllers split the limit
// equally instead.
package experiment

import (
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/workload"
)

// FleetResult extends MixedResult (computed from the global collector,
// so the period tables mean the same thing for any roster size) with
// per-backend routing and planning detail.
type FleetResult struct {
	*MixedResult
	// Specs is the backend roster the run used.
	Specs []backend.Spec
	// Routed[i] counts the queries the router sent to roster backend i
	// (nil with one backend: there is no router).
	Routed []int64
	// BackendCompleted[i] counts the queries roster backend i's engine
	// completed over the run, all classes (its engine's Stats). They sum
	// to the period tables' completions.
	BackendCompleted []int
	// Plans is the fleet planner's budget-split history.
	Plans []router.FleetPlan
	// Feasibility[i] folds roster backend i's per-tick plan record
	// (Query Scheduler mode).
	Feasibility []InfeasibilitySummary
}

// Validate is the one check of a mixed run's configuration, so a bad
// one comes back as an error rather than a panic mid-run. It rejects a
// schedule the client pool cannot apply, a fault plan that does not fit
// the roster (a backend-scoped fault naming a backend outside it, or
// crash windows that leave no backend up at some instant), a retry
// policy the patroller would refuse, a Query Scheduler config the
// scheduler would refuse, a Query Scheduler fleet too large for the
// planner to split, and checkpointing asked of a run that cannot
// round-trip through a checkpoint.
func (cfg MixedConfig) Validate() error {
	if err := cfg.validateSchedule(); err != nil {
		return err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.ValidateRoster(max(len(cfg.Backends), 1)); err != nil {
			return err
		}
	}
	if cfg.Retry != nil {
		if err := cfg.Retry.Validate(); err != nil {
			return err
		}
	}
	if cfg.Mode == QueryScheduler && cfg.QS != nil {
		if err := cfg.QS.Validate(); err != nil {
			return err
		}
	}
	if cfg.Mode == QueryScheduler && len(cfg.Backends) >= 2 {
		if err := router.ValidateRoster(len(cfg.Backends)); err != nil {
			return err
		}
	}
	if cfg.CheckpointEvery > 0 {
		return validateCheckpointing(cfg)
	}
	return nil
}

// validateSchedule rejects a schedule with no periods or a non-positive
// period length, duplicate class IDs, a class whose goal metric does not
// fit its kind, and a period that asks for a negative client count or for
// clients of a class the run does not have.
func (cfg MixedConfig) validateSchedule() error {
	s := cfg.Sched
	if len(s.Clients) == 0 {
		return errors.New("experiment: empty schedule")
	}
	if !(s.PeriodSeconds > 0) {
		return fmt.Errorf("experiment: schedule period length %v must be positive", s.PeriodSeconds)
	}
	classes := cfg.classes()
	known := make(map[engine.ClassID]bool, len(classes))
	for _, c := range classes {
		if known[c.ID] {
			return fmt.Errorf("experiment: duplicate class ID %d", c.ID)
		}
		if want := c.Kind.GoalMetric(); c.Goal.Metric != want {
			return fmt.Errorf("experiment: class %d is %s but its goal metric is %s; %s goals are %s",
				c.ID, c.Kind, c.Goal.Metric, c.Kind, want)
		}
		known[c.ID] = true
	}
	for p, counts := range s.Clients {
		for _, id := range counts.IDs() {
			switch n := counts[id]; {
			case n < 0:
				return fmt.Errorf("experiment: schedule period %d has %d clients for class %d", p+1, n, id)
			case n > 0 && !known[id]:
				return fmt.Errorf("experiment: schedule period %d has %d clients for class %d, which the run does not have", p+1, n, id)
			}
		}
	}
	return nil
}

// classes returns the run's service classes: Classes, or the paper's
// three when it is nil.
func (cfg MixedConfig) classes() []*workload.Class {
	if cfg.Classes == nil {
		return workload.PaperClasses()
	}
	return cfg.Classes
}

// RunFleet executes one mixed-workload experiment on the configured
// roster (nil Backends = one paper-default backend) and returns the
// result with its per-backend detail. RunMixed is RunFleet without the
// detail. It panics on a configuration Validate rejects; callers that
// take config from input validate first.
func RunFleet(cfg MixedConfig) *FleetResult { return runFleet(cfg, true) }

// runFleet is RunFleet with the fleet's failover response switchable;
// only E15's no-mitigation arm passes mitigate false (see buildRig).
func runFleet(cfg MixedConfig, mitigate bool) *FleetResult {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	r, o, obsErr := buildRig(cfg, mitigate)
	r.Sched.Install(r.Clock, r.Pool, nil)
	return r.complete(cfg, o, 0, obsErr)
}

// complete runs r from boundary startIdx to the end of the schedule,
// flushes the exports unless a fault-plan crash stopped the run, and
// collects the result.
func (r *Rig) complete(cfg MixedConfig, o *runObs, startIdx int, obsErr error) *FleetResult {
	crashed, runErr := runBoundaries(r, o, cfg, startIdx)
	if obsErr == nil {
		obsErr = runErr
	}
	if obsErr == nil && !crashed {
		obsErr = o.finish()
	}
	fr := collect(cfg, r, obsErr)
	fr.Crashed = crashed
	return fr
}

// runBoundaries drives the simulation from boundary startIdx to the end
// of the schedule. With checkpointing disabled it is a single RunUntil,
// exactly as Rig.Run; with checkpointing enabled the run is split at
// boundary multiples — behaviour-neutral, since all events at or before
// each boundary have fired either way — and a checkpoint is written
// every CheckpointEvery boundaries and at the schedule's end. Returns
// crashed=true when a fault-plan crash stopped the clock mid-run (the
// "process death" the recovery experiments resume from); nothing is
// written or finished after a crash.
func runBoundaries(r *Rig, o *runObs, cfg MixedConfig, startIdx int) (crashed bool, err error) {
	duration := r.Sched.Duration()
	died := func() bool {
		for _, inj := range r.Faults {
			if inj.Crashed() {
				return true
			}
		}
		return false
	}
	if cfg.CheckpointEvery <= 0 {
		r.Clock.RunUntil(duration)
		return died(), nil
	}
	// A run resumed at the terminal boundary is already at the end: it
	// must not write a second (higher-indexed) terminal checkpoint.
	if boundaryTime(cfg, startIdx) >= duration {
		return false, nil
	}
	for idx := startIdx + 1; ; idx++ {
		t := boundaryTime(cfg, idx)
		last := t >= duration
		r.Clock.RunUntil(t)
		if died() {
			return true, nil
		}
		// The terminal checkpoint marks the run complete on disk, so
		// resuming a value that already finished (qsweep -resume over a
		// partially interrupted sweep) re-emits its stored result
		// instead of re-simulating.
		if last || idx%cfg.CheckpointEvery == 0 {
			if werr := checkpoint.Write(cfg.CheckpointDir, idx, r.snapshot(cfg, o, idx, last)); werr != nil {
				return false, werr
			}
		}
		if last {
			return false, nil
		}
	}
}

// collect assembles the result from a finished (or crashed) rig: the
// standard mixed tables from the run's collector, run-wide per-class
// cost limits as the sum of the backends' plans, and the per-backend
// routing and planning detail.
func collect(cfg MixedConfig, r *Rig, obsErr error) *FleetResult {
	res := &MixedResult{
		Mode: cfg.Mode,
		// The collector returns classes sorted by ID, so report columns
		// come out in the same stable order however the caller ordered
		// its class slice.
		Classes: r.Collector.Classes(),
		Periods: cfg.Sched.Periods(),
	}
	fillMixedTables(res, r.Collector)
	res.ExportErr = obsErr
	for _, inj := range r.Faults {
		res.Faults.Add(inj.Stats())
	}
	fr := &FleetResult{MixedResult: res, Plans: r.Plans}
	if r.Router != nil {
		fr.Routed = r.Router.Routed()
	}
	for _, b := range r.Backends {
		fr.Specs = append(fr.Specs, b.Spec())
		res.PatStats.Add(b.Pat.Stats())
		fr.BackendCompleted = append(fr.BackendCompleted, int(b.Eng.Stats().Completed))
		if b.QS == nil {
			continue
		}
		hist := b.QS.History()
		fr.Feasibility = append(fr.Feasibility, summarizeInfeasibility(hist))
		if len(r.Backends) == 1 {
			res.PlanHistory = hist
		}
		// res.Classes (not r.Classes) keeps limit rows aligned with the
		// sorted report columns.
		limits := averageLimitsPerPeriod(hist, res.Classes, cfg.Sched)
		if res.CostLimits == nil {
			res.CostLimits = limits
			continue
		}
		for i := range limits {
			for p := range limits[i] {
				res.CostLimits[i][p] += limits[i][p]
			}
		}
	}
	return fr
}
