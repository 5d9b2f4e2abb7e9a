// Quickstart: build the simulated DBMS, attach the Query Scheduler, drive
// a small mixed workload for one virtual hour, and check the SLOs.
//
//	go run ./examples/quickstart
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
	// 1. A virtual clock and the simulated DBMS (DB2-like: 2 CPUs, a
	//    SCSI array, contention past a multiprogramming knee).
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)

	// 2. The two databases: TPC-H-like (OLAP) and TPC-C-like (OLTP),
	//    costed by the optimizer model in timerons.
	model := optimizer.DefaultModel()
	olap := workload.NewSet(optimizer.New(model, workload.TPCHCatalog()), workload.TPCHTemplates())
	oltp := workload.NewSet(optimizer.New(model, workload.TPCCCatalog()), workload.TPCCTemplates())

	// 3. Three service classes with goals and business importance.
	classes := workload.PaperClasses()

	// 4. Interactive clients (zero think time), constant intensity:
	//    4 + 4 OLAP clients, 20 OLTP clients, for two 30-minute periods.
	pool := workload.NewPool(eng)
	src := rng.New(42)
	sched := workload.Schedule{
		PeriodSeconds: 1800,
		Clients: []engine.ClassMap[int]{
			{1: 4, 2: 4, 3: 20},
			{1: 4, 2: 4, 3: 20},
		},
	}
	for _, c := range classes {
		set := olap
		if c.Kind == workload.OLTP {
			set = oltp
		}
		pool.AddClients(c, set, sched.MaxClients()[c.ID], src)
	}
	collector := metrics.NewCollector(eng, classes, sched)

	// 5. Query Patroller intercepts the OLAP classes; the Query
	//    Scheduler plans cost limits and dispatches releases. The OLTP
	//    class is observed through the snapshot monitor and controlled
	//    indirectly.
	pat := patroller.New(eng, 1, 2)
	qs, err := core.New(core.DefaultConfig(), eng, pat, classes,
		func() []engine.ClientID { return pool.ActiveClients(3) })
	if err != nil {
		panic(err)
	}
	qs.Start()

	// 6. Run one virtual hour (finishes in well under a second).
	sched.Install(clock, pool, nil)
	clock.RunUntil(sched.Duration())

	// 7. Report.
	fmt.Println("After one virtual hour under Query Scheduler control:")
	for _, c := range classes {
		v, ok := collector.Metric(1, c.ID)
		status := "met"
		if !ok {
			status = "n/a"
		} else if !c.Goal.Met(v) {
			status = "MISSED"
		}
		fmt.Printf("  %-8s goal %-18s measured %6.3f  -> %s\n", c.Name, c.Goal, v, status)
	}
	fmt.Printf("\nFinal scheduling plan (timerons of the %v system limit):\n",
		core.DefaultConfig().SystemCostLimit)
	for _, c := range classes {
		limit, _ := qs.CostLimit(c.ID)
		fmt.Printf("  %-8s %8.0f\n", c.Name, limit)
	}
}
