// The run pipeline every mixed-workload experiment goes through, on one
// backend or many: build the rig, attach observability, run to the end
// of the schedule in checkpointable boundaries, snapshot, collect — and,
// from a checkpoint, resume (checkpoint.go).
//
// The control plane is hierarchical on a Query Scheduler fleet: the
// fleet planner (router.Planner) splits the global SystemCostLimit
// across backends proportionally to their smoothed routed-cost demand,
// and each backend's own Query Scheduler runs the per-class solver,
// unchanged, against its share. The static controllers split the limit
// equally instead.
package experiment

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/checkpoint"
	"repro/internal/core"
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
	// BackendCompleted[i][p] counts roster backend i's completions (all
	// classes) in period p.
	BackendCompleted [][]int
	// Plans is the fleet planner's budget-split history.
	Plans []router.FleetPlan
	// Histories[i] is roster backend i's per-tick plan record (Query
	// Scheduler mode).
	Histories [][]core.PlanRecord
}

// Validate rejects a configuration whose fault plan does not fit the
// roster: a backend-scoped fault naming a backend outside it, or crash
// windows that leave no backend up at some instant.
func (cfg MixedConfig) Validate() error {
	if cfg.Faults == nil {
		return nil
	}
	n := len(cfg.Backends)
	if n == 0 {
		n = 1
	}
	return cfg.Faults.ValidateRoster(n)
}

// RunFleet executes one mixed-workload experiment on the configured
// roster (nil Backends = one paper-default backend) and returns the
// result with its per-backend detail. RunMixed is RunFleet without the
// detail.
func RunFleet(cfg MixedConfig) *FleetResult {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	if cfg.CheckpointEvery > 0 {
		validateCheckpointing(cfg)
	}
	r, o, obsErr := buildRig(cfg, false)
	var spec RunSpec
	if cfg.CheckpointEvery > 0 {
		spec = specFromConfig(cfg, r.Classes)
	}
	inst := r.Sched.Install(r.Clock, r.Pool, nil)
	return r.complete(cfg, o, inst, &spec, 0, obsErr)
}

// complete runs r from boundary startIdx to the end of the schedule,
// flushes the exports unless a fault-plan crash stopped the run, and
// collects the result.
func (r *Rig) complete(cfg MixedConfig, o *runObs, inst *workload.Installation, spec *RunSpec, startIdx int, obsErr error) *FleetResult {
	crashed, runErr := runBoundaries(r, o, inst, spec, cfg, startIdx)
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

// runBoundaries drives the simulation to the end of the schedule. With
// checkpointing disabled it is a single RunUntil, exactly as Rig.Run;
// with checkpointing enabled the run is split at boundary multiples —
// behaviour-neutral, since all events at or before each boundary have
// fired either way — and a snapshot is written every CheckpointEvery
// boundaries. Returns crashed=true when a fault-plan crash stopped the
// clock mid-run (the "process death" the recovery experiments resume
// from); nothing is written or finished after a crash.
func runBoundaries(r *Rig, o *runObs, inst *workload.Installation, spec *RunSpec, cfg MixedConfig, startIdx int) (crashed bool, err error) {
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
	step := boundaryStep(cfg)
	// atEnd marks a resume that restored a terminal snapshot: the clock is
	// already at the schedule end, so the loop below must not write a
	// second (higher-indexed) terminal snapshot.
	atEnd := float64(startIdx)*step >= duration
	for idx := startIdx; ; idx++ {
		t := float64(idx+1) * step
		last := t >= duration
		if last {
			t = duration
		}
		r.Clock.RunUntil(t)
		if died() {
			return true, nil
		}
		if last {
			// Terminal snapshot: mark the run complete on disk. Without
			// it, resuming a value that already finished (qsweep -resume
			// over a partially interrupted sweep) restores the last
			// mid-run boundary and re-simulates the whole tail; with it,
			// the resume restores the finished state and only re-emits
			// the final exports.
			if !atEnd {
				if werr := checkpoint.Write(cfg.CheckpointDir, idx+1, snapshotRun(r, o, inst, spec, idx+1)); werr != nil {
					return false, werr
				}
			}
			return false, nil
		}
		if (idx+1)%cfg.CheckpointEvery == 0 {
			if werr := checkpoint.Write(cfg.CheckpointDir, idx+1, snapshotRun(r, o, inst, spec, idx+1)); werr != nil {
				return false, werr
			}
		}
	}
}

// collect assembles the result from a finished (or crashed) rig: the
// standard mixed tables from the global collector, run-wide per-class
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
		row := make([]int, res.Periods)
		for p := range row {
			for _, cl := range res.Classes {
				row[p] += b.Collector.Agg(p, cl.ID).Completed
			}
		}
		fr.BackendCompleted = append(fr.BackendCompleted, row)
		if b.QS == nil {
			continue
		}
		hist := b.QS.History()
		fr.Histories = append(fr.Histories, hist)
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
	if len(fr.Histories) == 1 {
		res.PlanHistory = fr.Histories[0]
	}
	return fr
}
