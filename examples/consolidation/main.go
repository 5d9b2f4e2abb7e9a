// Consolidation: the scenario motivating the paper's introduction —
// several consolidated tenants with "diverse and dynamic resource demands
// and competing performance objectives" share one database server, and
// workload adaptation must keep each tenant's SLO.
//
// Three tenants share the box:
//
//   - "reporting": a batch-analytics tenant, low importance, modest
//     velocity goal;
//   - "dashboard": an interactive-BI tenant, medium importance, high
//     velocity goal (its users are watching);
//   - "checkout": the revenue-critical transactional tenant with a tight
//     response-time SLO and the highest importance.
//
// Midway through the run the reporting tenant launches a burst of heavy
// queries (month-end close). Watch the Query Scheduler strip resources
// from reporting — and only reporting — to keep checkout and dashboard on
// goal.
//
//	go run ./examples/consolidation
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func main() {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)

	model := optimizer.DefaultModel()
	olapSet := workload.NewSet(optimizer.New(model, workload.TPCHCatalog()), workload.TPCHTemplates())
	oltpSet := workload.NewSet(optimizer.New(model, workload.TPCCCatalog()), workload.TPCCTemplates())

	reporting := &workload.Class{ID: 1, Name: "reporting", Kind: workload.OLAP,
		Goal: workload.Goal{Metric: workload.Velocity, Target: 0.30}, Importance: 1}
	dashboard := &workload.Class{ID: 2, Name: "dashboard", Kind: workload.OLAP,
		Goal: workload.Goal{Metric: workload.Velocity, Target: 0.70}, Importance: 2}
	checkout := &workload.Class{ID: 3, Name: "checkout", Kind: workload.OLTP,
		Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.30}, Importance: 3}
	classes := []*workload.Class{reporting, dashboard, checkout}

	// Six 15-minute periods; the month-end burst hits reporting in
	// periods 3-4 (client count triples).
	sched := workload.Schedule{
		PeriodSeconds: 900,
		Clients: []engine.ClassMap[int]{
			{1: 2, 2: 3, 3: 18},
			{1: 2, 2: 3, 3: 18},
			{1: 6, 2: 3, 3: 18}, // month-end close begins
			{1: 6, 2: 3, 3: 18},
			{1: 2, 2: 3, 3: 18},
			{1: 2, 2: 3, 3: 18},
		},
	}

	pool := workload.NewPool(eng)
	src := rng.New(7)
	for _, c := range classes {
		set := olapSet
		if c.Kind == workload.OLTP {
			set = oltpSet
		}
		pool.AddClients(c, set, sched.MaxClients()[c.ID], src)
	}
	collector := metrics.NewCollector(eng, classes, sched)

	pat := patroller.New(eng, reporting.ID, dashboard.ID)
	qs, err := core.New(core.DefaultConfig(), eng, pat, classes,
		func() []engine.ClientID { return pool.ActiveClients(checkout.ID) })
	if err != nil {
		panic(err)
	}
	qs.Start()

	sched.Install(clock, pool, nil)
	clock.RunUntil(sched.Duration())

	fmt.Println("Consolidated tenants under Query Scheduler control")
	fmt.Println("(burst: reporting runs month-end close in periods 3-4)")
	fmt.Printf("\n%8s %12s %12s %12s   %s\n", "period", "reporting", "dashboard", "checkout", "cost limits (rep/dash/chk)")
	limits := perPeriodLimits(qs, sched, classes)
	for p := 0; p < sched.Periods(); p++ {
		row := fmt.Sprintf("%8d", p+1)
		for _, c := range classes {
			v, ok := collector.Metric(p, c.ID)
			mark := " "
			if ok && !c.Goal.Met(v) {
				mark = "*"
			}
			row += fmt.Sprintf(" %11.3f%s", v, mark)
		}
		row += fmt.Sprintf("   %6.0f /%6.0f /%6.0f",
			limits[0][p], limits[1][p], limits[2][p])
		fmt.Println(row)
	}
	fmt.Println("\n(* = SLO missed; velocity for OLAP tenants, avg RT seconds for checkout)")

	fmt.Println("\nGoal satisfaction across the run:")
	for _, c := range classes {
		fmt.Printf("  %-10s %3.0f%%\n", c.Name, 100*collector.GoalSatisfaction(c.ID))
	}
}

// perPeriodLimits averages the plan history into per-period means.
func perPeriodLimits(qs *core.QueryScheduler, sched workload.Schedule,
	classes []*workload.Class) [][]float64 {

	out := make([][]float64, len(classes))
	counts := make([][]int, len(classes))
	for i := range out {
		out[i] = make([]float64, sched.Periods())
		counts[i] = make([]int, sched.Periods())
	}
	for _, rec := range qs.History() {
		p := sched.PeriodAt(rec.Time)
		for i, c := range classes {
			row, _ := rec.Class(c.ID)
			out[i][p] += row.Limit
			counts[i][p]++
		}
	}
	for i := range out {
		for p := range out[i] {
			if counts[i][p] > 0 {
				out[i][p] /= float64(counts[i][p])
			}
		}
	}
	return out
}
