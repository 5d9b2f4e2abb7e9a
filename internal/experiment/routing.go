// E14: the fleet routing experiment. Three backends — two at paper
// capacity and one at half capacity — serve the paper's three service
// classes behind the routing tier. The router's load scorer should
// steer queries away from the slow box as its utilization climbs, and
// the hierarchical planner should hand it a correspondingly smaller
// slice of the global cost budget, while the fleet-global period tables
// stay comparable to a single-engine run.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/backend"
	"repro/internal/engine"
	"repro/internal/workload"
)

// RoutingBackends returns the E14 roster: two paper-default backends
// and one at half CPU/IO capacity.
func RoutingBackends() []backend.Spec {
	return []backend.Spec{
		{Name: "fast-1"},
		{Name: "fast-2"},
		{Name: "slow", CPUCapacity: 1, IOCapacity: 7},
	}
}

// RoutingMixedConfig builds the E14 run: a constant heavy mix (one
// warm-up period, three measured) on the heterogeneous fleet.
func RoutingMixedConfig() MixedConfig {
	return MixedConfig{
		Mode: QueryScheduler,
		Sched: ConstantSchedule(600, 1800, map[engine.ClassID]int{
			1: 8, 2: 8, 3: 40,
		}),
		Classes:    workload.PaperClasses(),
		Seed:       1,
		Experiment: "routing",
		Backends:   RoutingBackends(),
	}
}

// WriteRouting prints the E14 verdict table: where the router sent the
// work, what each backend completed, and how the planner split the
// budget.
func WriteRouting(w io.Writer, res *FleetResult) {
	var totalRouted int64
	for _, n := range res.Routed {
		totalRouted += n
	}
	fmt.Fprintf(w, "Fleet routing (%d backends, %d queries routed):\n", len(res.Specs), totalRouted)
	var finalLimits []float64
	if len(res.Plans) > 0 {
		finalLimits = res.Plans[len(res.Plans)-1].Limits
	}
	fmt.Fprintf(w, "%10s %6s %6s %10s %8s %10s %12s\n",
		"backend", "cpu", "io", "routed", "share", "completed", "final-limit")
	for i, spec := range res.Specs {
		ec := spec.EngineConfig()
		share := 0.0
		if totalRouted > 0 {
			share = float64(res.Routed[i]) / float64(totalRouted)
		}
		limit := "-"
		if i < len(finalLimits) {
			limit = fmt.Sprintf("%.0f", finalLimits[i])
		}
		fmt.Fprintf(w, "%10s %6g %6g %10d %7.0f%% %10d %12s\n",
			spec.Name, ec.CPUCapacity, ec.IOCapacity, res.Routed[i], 100*share, res.BackendCompleted[i], limit)
	}
	// Final per-backend attainment, from each backend's own control loop.
	for i, f := range res.Feasibility {
		if f.Final == nil {
			continue
		}
		fmt.Fprintf(w, "  %s attainment:", res.Specs[i].Name)
		for _, c := range res.Classes {
			row, _ := f.Final.Class(c.ID)
			fmt.Fprintf(w, " %s=%.2f", c.Name, row.Attainment)
		}
		fmt.Fprintln(w)
	}
}
