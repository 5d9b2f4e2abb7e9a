// The fault matrix (E8): every fault scenario crossed with the
// mitigation stack off/on, all under the Query Scheduler. "Mitigations"
// are the control loop's robustness features added alongside the fault
// subsystem: per-query timeout + bounded retry with refreshed cost at
// the patroller, plan-hold degradation + last-fit slope fallback at the
// planner. The off arm runs the paper's plain scheduler against the same
// deterministic fault plan, so each row is a controlled before/after.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/patroller"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FaultScenario is one named deterministic fault plan.
type FaultScenario struct {
	Name string
	Plan fault.Plan
}

// DefaultFaultScenarios returns the standard scenario set, with windows
// placed as fractions of the schedule's duration so the same scenarios
// scale from the CI smoke schedule to the full 24-hour one.
func DefaultFaultScenarios(sched workload.Schedule) []FaultScenario {
	d := sched.Duration()
	return []FaultScenario{
		{
			Name: "abort-storm",
			Plan: fault.Plan{
				Seed:      11,
				AbortRate: map[engine.ClassID]float64{1: 0.12, 2: 0.12},
				AbortBursts: []fault.Burst{
					{Window: fault.Window{Start: 0.25 * d, End: 0.45 * d}, Class: 2, Rate: 0.6},
				},
			},
		},
		{
			Name: "misestimate",
			Plan: fault.Plan{
				Seed:        12,
				Misestimate: map[engine.ClassID]float64{1: 3, 2: 3},
			},
		},
		{
			Name: "abort+misestimate",
			Plan: fault.Plan{
				Seed:      13,
				AbortRate: map[engine.ClassID]float64{1: 0.25, 2: 0.25},
				AbortBursts: []fault.Burst{
					{Window: fault.Window{Start: 0.25 * d, End: 0.45 * d}, Class: 2, Rate: 0.6},
				},
				Misestimate: map[engine.ClassID]float64{1: 3, 2: 3},
			},
		},
		{
			Name: "monitor-outage",
			Plan: fault.Plan{
				Seed:            14,
				SnapshotDrop:    0.3,
				SnapshotOutages: []fault.Window{{Start: 0.3 * d, End: 0.5 * d}},
				HarvestOutages:  []fault.Window{{Start: 0.3 * d, End: 0.5 * d}},
			},
		},
		{
			Name: "slowdown",
			Plan: fault.Plan{
				Seed: 15,
				Slowdowns: []fault.Slowdown{
					{Window: fault.Window{Start: 0.6 * d, End: 0.7 * d}, Factor: 0.25},
				},
			},
		},
	}
}

// DefaultRetryPolicy is the mitigation stack's retry arm: up to four
// total attempts, linear backoff, and a per-query timeout generous
// enough that honestly-costed queries never trip it under processor
// sharing (exec time stays within a few multiples of stand-alone time at
// a healthy operating point) while 3x-misestimated queries running into
// a saturated engine do.
func DefaultRetryPolicy() patroller.RetryPolicy {
	return patroller.RetryPolicy{
		MaxAttempts:    4,
		Backoff:        5,
		TimeoutFloor:   120,
		TimeoutPerCost: 0.15,
	}
}

// Mitigated returns cfg with the mitigation stack armed: the default
// retry policy and, in Query Scheduler mode, bounded plan hold and
// last-fit OLTP slope fallback laid over the run's own scheduler config
// (the paper default when it has none). qsim, qsweep and the fault
// matrix's mitigated arm all arm it here.
func (cfg MixedConfig) Mitigated() MixedConfig {
	rp := DefaultRetryPolicy()
	cfg.Retry = &rp
	if cfg.Mode == QueryScheduler {
		qc := core.DefaultConfig()
		qc.SystemCostLimit = SystemCostLimit
		if cfg.QS != nil {
			qc = *cfg.QS
		}
		qc.HoldPlanOnDropout = true
		qc.OLTP.FallbackToLastFit = true
		cfg.QS = &qc
	}
	return cfg
}

// FaultMatrixConfig tunes RunFaultMatrix.
type FaultMatrixConfig struct {
	// Scenarios defaults to DefaultFaultScenarios(Sched) when nil.
	Scenarios []FaultScenario
	Sched     workload.Schedule
	Seed      uint64
	// Parallel is the worker count: 0 = GOMAXPROCS, 1 = serial. Cell
	// results are identical for any worker count.
	Parallel int
}

// quickSchedule is the one-hour schedule of six 600 s periods that the
// quick fault matrix and the crash-recovery experiment run.
func quickSchedule() workload.Schedule {
	s := workload.Schedule{PeriodSeconds: 600}
	for _, c := range [][3]int{
		{2, 3, 15}, {4, 2, 20}, {3, 4, 25},
		{2, 3, 15}, {3, 4, 20}, {2, 6, 25},
	} {
		s.Clients = append(s.Clients, engine.ClassMap[int]{1: c[0], 2: c[1], 3: c[2]})
	}
	return s
}

// QuickFaultMatrixConfig is the CI-smoke-sized matrix: a one-hour
// six-period schedule instead of the 24-hour paper one.
func QuickFaultMatrixConfig() FaultMatrixConfig {
	return FaultMatrixConfig{Sched: quickSchedule(), Seed: 1}
}

// DefaultFaultMatrixConfig runs the matrix over the paper's Figure 3
// schedule.
func DefaultFaultMatrixConfig() FaultMatrixConfig {
	return FaultMatrixConfig{Sched: workload.PaperSchedule(), Seed: 1}
}

// FaultCell is one (scenario, mitigation) outcome.
type FaultCell struct {
	Scenario  string
	Mitigated bool
	// Satisfaction[i] is class i's goal satisfaction, in MixedResult's
	// sorted class order.
	Satisfaction []float64
	// OLAPSatisfaction averages goal satisfaction over the OLAP classes —
	// the matrix's headline SLO-adherence number.
	OLAPSatisfaction float64
	// OLTPMeanRT is the OLTP class's mean response time over measurable
	// periods (seconds).
	OLTPMeanRT float64
	// Injected counts what the fault plan actually did to this run.
	Injected fault.Stats
	// Retried/TimedOut/Exhausted/Failed are the patroller's fault-path
	// counters (all zero with mitigations off: no retry policy is armed,
	// so every abort is terminal).
	Retried   uint64
	TimedOut  uint64
	Exhausted uint64
	Failed    uint64
	// PlansHeld counts degraded control ticks that held the previous
	// plan.
	PlansHeld int
}

// RunFaultMatrix crosses every fault scenario with mitigations off/on and
// measures SLO adherence under each combination. Cells run independently
// (own rig, clock, injector), fanned across the worker pool.
func RunFaultMatrix(cfg FaultMatrixConfig) []FaultCell {
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = DefaultFaultScenarios(cfg.Sched)
	}
	type job struct {
		sc        FaultScenario
		mitigated bool
	}
	var jobs []job
	for _, sc := range scenarios {
		jobs = append(jobs, job{sc, false}, job{sc, true})
	}
	return Map(cfg.Parallel, jobs, func(j job, _ int) FaultCell {
		return runFaultCell(j.sc, j.mitigated, cfg)
	})
}

// runFaultCell executes one matrix cell.
func runFaultCell(sc FaultScenario, mitigated bool, cfg FaultMatrixConfig) FaultCell {
	plan := sc.Plan
	mc := MixedConfig{
		Mode:       QueryScheduler,
		Sched:      cfg.Sched,
		Seed:       cfg.Seed,
		Faults:     &plan,
		Experiment: fmt.Sprintf("faultmatrix/%s/mitigated=%t", sc.Name, mitigated),
	}
	if mitigated {
		mc = mc.Mitigated()
	}
	res := RunMixed(mc)

	cell := FaultCell{
		Scenario:     sc.Name,
		Mitigated:    mitigated,
		Satisfaction: res.Satisfaction,
		Injected:     res.Faults,
		Retried:      res.PatStats.Retried,
		TimedOut:     res.PatStats.TimedOut,
		Exhausted:    res.PatStats.Exhausted,
		Failed:       res.PatStats.Failed,
	}
	var olap stats.Summary
	var oltp stats.Summary
	for i, cl := range res.Classes {
		if cl.Kind == workload.OLAP {
			olap.Add(res.Satisfaction[i])
			continue
		}
		for p := 0; p < res.Periods; p++ {
			if res.Measurable[i][p] {
				oltp.Add(res.Metric[i][p])
			}
		}
	}
	cell.OLAPSatisfaction = olap.Mean()
	cell.OLTPMeanRT = oltp.Mean()
	for _, rec := range res.PlanHistory {
		if rec.Held {
			cell.PlansHeld++
		}
	}
	return cell
}

// WriteFaultMatrix renders the matrix as a before/after table, one
// scenario per row pair.
func WriteFaultMatrix(w io.Writer, cells []FaultCell) {
	fmt.Fprintln(w, "Fault matrix: scenario x mitigation (timeout+retry, plan hold, slope fallback)")
	fmt.Fprintf(w, "%-20s %-10s %10s %12s %8s %8s %8s %8s %6s\n",
		"scenario", "mitigated", "OLAP sat", "OLTP RT(ms)", "faults", "retries", "timeout", "failed", "held")
	for _, c := range cells {
		fmt.Fprintf(w, "%-20s %-10t %9.0f%% %12.0f %8d %8d %8d %8d %6d\n",
			c.Scenario, c.Mitigated, 100*c.OLAPSatisfaction, 1000*c.OLTPMeanRT,
			c.Injected.Total(), c.Retried, c.TimedOut, c.Failed, c.PlansHeld)
	}
}

// FaultMatrixCSV renders the matrix as CSV for plotting.
func FaultMatrixCSV(cells []FaultCell) string {
	out := "scenario,mitigated,olap_satisfaction,oltp_mean_rt_seconds,faults_injected,retries,timeouts,exhausted,failed,plans_held\n"
	for _, c := range cells {
		out += fmt.Sprintf("%s,%t,%.6g,%.6g,%d,%d,%d,%d,%d,%d\n",
			c.Scenario, c.Mitigated, c.OLAPSatisfaction, c.OLTPMeanRT,
			c.Injected.Total(), c.Retried, c.TimedOut, c.Exhausted, c.Failed, c.PlansHeld)
	}
	return out
}
