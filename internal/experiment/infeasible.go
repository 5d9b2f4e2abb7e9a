// E13: the infeasible-goals experiment. Every class is given a goal the
// shared 30k-timeron budget cannot satisfy simultaneously — two OLAP
// classes demanding near-ideal velocity under heavy contention plus an
// overloaded OLTP class with an aggressive response-time goal — so the
// Performance Solver flags infeasibility on most ticks and the decision
// log records which goal binds. This is the scenario the paper's
// utility-function machinery exists for: when not everything can be
// met, importance decides who hurts.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// InfeasibleClasses returns the E13 roster: jointly unsatisfiable goals.
func InfeasibleClasses() []*workload.Class {
	return []*workload.Class{
		{ID: 1, Name: "Class 1", Kind: workload.OLAP,
			Goal: workload.Goal{Metric: workload.Velocity, Target: 0.85}, Importance: 1},
		{ID: 2, Name: "Class 2", Kind: workload.OLAP,
			Goal: workload.Goal{Metric: workload.Velocity, Target: 0.90}, Importance: 2},
		{ID: 3, Name: "Class 3", Kind: workload.OLTP,
			Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.05}, Importance: 3},
	}
}

// InfeasibleMixedConfig builds the E13 run: a constant heavy mix (one
// warm-up period, three measured) under the Query Scheduler.
func InfeasibleMixedConfig() MixedConfig {
	return MixedConfig{
		Mode: QueryScheduler,
		Sched: ConstantSchedule(600, 1800, map[engine.ClassID]int{
			1: 6, 2: 6, 3: 40,
		}),
		Classes:    InfeasibleClasses(),
		Seed:       1,
		Experiment: "infeasible",
	}
}

// InfeasibilitySummary aggregates the plans' feasibility verdicts over
// one backend's plan history.
type InfeasibilitySummary struct {
	Ticks           int
	HeldTicks       int
	InfeasibleTicks int
	// Binding[class] counts infeasible ticks where that class's goal was
	// the binding constraint.
	Binding engine.ClassMap[int]
	// Final is the last planned (non-held) tick, whose rows carry each
	// class's final SLO accounting; nil when every tick was held.
	Final *core.PlanRecord
}

// summarizeInfeasibility folds a plan history into a summary.
func summarizeInfeasibility(hist []core.PlanRecord) InfeasibilitySummary {
	s := InfeasibilitySummary{Binding: make(engine.ClassMap[int])}
	for i := range hist {
		rec := &hist[i]
		s.Ticks++
		if rec.Held {
			s.HeldTicks++
			continue
		}
		if rec.Infeasible {
			s.InfeasibleTicks++
			s.Binding[rec.Binding]++
		}
		s.Final = rec
	}
	return s
}

// WriteInfeasibility prints the E13 verdict table of a one-backend run:
// how often the solver found no feasible plan, which goal bound, and
// where the SLO accounting ended up.
func WriteInfeasibility(w io.Writer, res *FleetResult) {
	var s InfeasibilitySummary
	if len(res.Feasibility) == 1 {
		s = res.Feasibility[0]
	}
	fmt.Fprintf(w, "Solver feasibility (%d control ticks, %d held):\n", s.Ticks, s.HeldTicks)
	planned := s.Ticks - s.HeldTicks
	if planned > 0 {
		fmt.Fprintf(w, "  infeasible ticks: %d/%d (%.0f%%)\n",
			s.InfeasibleTicks, planned, 100*float64(s.InfeasibleTicks)/float64(planned))
	}
	for _, id := range s.Binding.IDs() {
		name := fmt.Sprintf("class %d", id)
		for _, c := range res.Classes {
			if c.ID == id {
				name = c.Name
			}
		}
		fmt.Fprintf(w, "  binding constraint: %s on %d ticks\n", name, s.Binding[id])
	}
	if s.Final != nil {
		fmt.Fprintf(w, "  final attainment:")
		for _, c := range res.Classes {
			row, _ := s.Final.Class(c.ID)
			fmt.Fprintf(w, " %s=%.2f", c.Name, row.Attainment)
		}
		fmt.Fprintln(w)
	}
}
