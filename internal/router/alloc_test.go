//go:build !race

package router

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/engine"
	"repro/internal/simclock"
)

// A routed query runs acquire → Submit → completion → recycle through
// the fleet's one freelist without allocating, also after a failover
// has moved queries between engines. (Skipped under -race:
// instrumentation adds its own allocations.)
func TestRoutedQueryAllocFree(t *testing.T) {
	clock := simclock.New()
	specs := backend.DefaultSpecs(3)
	roster := make([]backend.Backend, len(specs))
	for i, spec := range specs {
		roster[i] = backend.New(i+1, spec, clock)
	}
	r := New(roster, DefaultScorers())
	i := 0
	route := func() {
		q := r.AcquireQuery()
		q.Class = engine.ClassID(1 + i%3)
		q.Cost = 100
		q.Demand = engine.Demand{Work: 0.001, CPURate: 1, IORate: 0.2}
		i++
		r.Submit(q)
		clock.RunUntil(clock.Now() + 0.01)
	}
	warm := func() {
		for j := 0; j < 100; j++ {
			route()
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("routed query allocates %v per query, want 0", allocs)
	}

	// Fail backend 1 with queries in flight, so evacuated objects finish
	// on the survivors, then bring it back.
	for j := 0; j < 3; j++ {
		q := r.AcquireQuery()
		q.Cost = 100
		q.Demand = engine.Demand{Work: 1, CPURate: 1}
		r.Submit(q)
	}
	if moved := r.MarkDown(1); moved == 0 {
		t.Fatal("MarkDown moved nothing; the test needs queries in flight")
	}
	clock.RunUntil(clock.Now() + 10)
	r.MarkUp(1)
	warm()
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Fatalf("routed query allocates %v per query after MarkDown/MarkUp, want 0", allocs)
	}
}

// The planner's tick reuses its harvest, weight and limit buffers and
// reads each scheduler's verdict without copying its plan record; only
// OnPlan listeners get fresh copies, which they may keep.
func TestPlannerTickAllocFree(t *testing.T) {
	clock, r, instances := fleetPair(t)
	p := StartPlanner(clock, r, instances, PlannerConfig{Interval: 60, Total: 30000, Migrate: true})
	clock.RunUntil(121)
	for _, b := range instances {
		if _, ok := b.QS.LastVerdict(); !ok {
			t.Fatal("no scheduler verdict yet; the test needs the planner to read one")
		}
	}
	r.cost[0] = 5000
	p.tick()
	if allocs := testing.AllocsPerRun(50, p.tick); allocs != 0 {
		t.Fatalf("planner tick allocates %v per tick, want 0", allocs)
	}

	var plans []FleetPlan
	p.OnPlan(func(fp FleetPlan) { plans = append(plans, fp) })
	r.cost[0] = 10000
	p.tick()
	r.cost[1] = 10000
	p.tick()
	if len(plans) != 2 || plans[0].Limits[0] <= plans[0].Limits[1] || plans[1].Limits[0] == plans[0].Limits[0] {
		t.Fatalf("plans = %+v; want the first split toward backend 1 kept intact by the second", plans)
	}
}
