package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/workload"
)

func testClasses() []*workload.Class {
	return []*workload.Class{
		{ID: 1, Name: "olap1", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.4}, Importance: 1},
		{ID: 2, Name: "olap2", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.6}, Importance: 2},
		{ID: 3, Name: "oltp", Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.25}, Importance: 3},
	}
}

// costLimits returns the scheduler's current plan by class.
func costLimits(qs *QueryScheduler) map[engine.ClassID]float64 {
	out := make(map[engine.ClassID]float64, len(qs.byID))
	for _, c := range qs.byID {
		out[c.ID], _ = qs.CostLimit(c.ID)
	}
	return out
}

type rig struct {
	clock *simclock.Clock
	eng   *engine.Engine
	pat   *patroller.Patroller
	qs    *QueryScheduler
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	clock, eng, pat, qs := buildScheduler(t, mutate, testClasses())
	return &rig{clock: clock, eng: eng, pat: pat, qs: qs}
}

func buildScheduler(t *testing.T, mutate func(*Config), classes []*workload.Class) (
	*simclock.Clock, *engine.Engine, *patroller.Patroller, *QueryScheduler) {

	t.Helper()
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 2, IOCapacity: 14}, clock)
	var olap []engine.ClassID
	for _, c := range classes {
		if c.Kind == workload.OLAP {
			olap = append(olap, c.ID)
		}
	}
	pat := patroller.New(eng, olap...)
	cfg := DefaultConfig()
	cfg.SystemCostLimit = 10000
	cfg.PlanStep = 500
	if mutate != nil {
		mutate(&cfg)
	}
	qs, err := New(cfg, eng, pat, classes, func() []engine.ClientID { return []engine.ClientID{1, 2} })
	if err != nil {
		t.Fatal(err)
	}
	return clock, eng, pat, qs
}

func olapQuery(class engine.ClassID, cost, work float64) *engine.Query {
	return &engine.Query{Class: class, Cost: cost, Demand: engine.Demand{Work: work, CPURate: 0.2, IORate: 1}}
}

func TestNewValidation(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)
	classes := testClasses()
	clients := func() []engine.ClientID { return nil }

	// OLAP class not managed by the patroller.
	pat := patroller.New(eng, 1) // class 2 missing
	if _, err := New(DefaultConfig(), eng, pat, classes, clients); err == nil {
		t.Fatal("unmanaged OLAP class accepted")
	}

	// OLTP class managed by the patroller.
	eng2 := engine.New(engine.DefaultConfig(), simclock.New())
	pat2 := patroller.New(eng2, 1, 2, 3)
	if _, err := New(DefaultConfig(), eng2, pat2, classes, clients); err == nil {
		t.Fatal("intercepted OLTP class accepted")
	}

	// Missing OLTP client source.
	eng3 := engine.New(engine.DefaultConfig(), simclock.New())
	pat3 := patroller.New(eng3, 1, 2)
	if _, err := New(DefaultConfig(), eng3, pat3, classes, nil); err == nil {
		t.Fatal("nil client source accepted with an OLTP class")
	}

	// Two OLTP classes.
	eng4 := engine.New(engine.DefaultConfig(), simclock.New())
	pat4 := patroller.New(eng4, 1, 2)
	dup := append(append([]*workload.Class{}, classes...),
		&workload.Class{ID: 4, Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 1}, Importance: 1})
	if _, err := New(DefaultConfig(), eng4, pat4, dup, clients); err == nil {
		t.Fatal("two OLTP classes accepted")
	}

	// No classes.
	if _, err := New(DefaultConfig(), eng, pat, nil, clients); err == nil {
		t.Fatal("empty class list accepted")
	}

	// An intercepted class outside the roster: the dispatcher would hold
	// its queries against a limit no plan has.
	engX := engine.New(engine.DefaultConfig(), simclock.New())
	if _, err := New(DefaultConfig(), engX, patroller.New(engX, 1, 2, 7), classes, clients); err == nil {
		t.Fatal("patroller intercepting class 7, which is not in the roster, accepted")
	}

	// A class listed twice, and a class of no known kind: a plan has one
	// row per class, so neither has a row to plan.
	eng5 := engine.New(engine.DefaultConfig(), simclock.New())
	pat5 := patroller.New(eng5, 1, 2)
	twice := append(append([]*workload.Class{}, classes...), classes[0])
	if _, err := New(DefaultConfig(), eng5, pat5, twice, clients); err == nil {
		t.Fatal("duplicate class accepted")
	}
	odd := append(append([]*workload.Class{}, classes...),
		&workload.Class{ID: 5, Kind: workload.Kind(7), Goal: workload.Goal{Metric: workload.Velocity, Target: 0.5}, Importance: 1})
	if _, err := New(DefaultConfig(), eng5, pat5, odd, clients); err == nil {
		t.Fatal("class of unknown kind accepted")
	}

	// A class whose goal metric does not fit its kind: the scheduler
	// scores OLAP classes by velocity and the OLTP class by response time.
	for i := range classes {
		swapped := append([]*workload.Class{}, classes...)
		c := *classes[i]
		c.Goal.Metric = 1 - c.Goal.Metric
		swapped[i] = &c
		eng6 := engine.New(engine.DefaultConfig(), simclock.New())
		if _, err := New(DefaultConfig(), eng6, patroller.New(eng6, 1, 2), swapped, clients); err == nil {
			t.Fatalf("class %d with a %s goal accepted", c.ID, c.Goal.Metric)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SystemCostLimit = 0 },
		func(c *Config) { c.ControlInterval = 0 },
		func(c *Config) { c.SnapshotInterval = -1 },
		func(c *Config) { c.PlanStep = 0 },
		func(c *Config) { c.PlanStep = c.SystemCostLimit * 2 },
		func(c *Config) { c.MinOLAPLimit = -1 },
		func(c *Config) { c.Solver = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.validate() == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInitialPlanSplitsEqually(t *testing.T) {
	r := newRig(t, nil)
	for id, want := range map[engine.ClassID]float64{1: 10000.0 / 3, 2: 10000.0 / 3, 3: 10000.0 / 3} {
		if got, ok := r.qs.CostLimit(id); !ok || math.Abs(got-want) > 1e-9 {
			t.Fatalf("initial limit of class %d = %v, %v", id, got, ok)
		}
	}
}

// CostLimit answers for the roster's classes only.
func TestCostLimitIsPerRosterClass(t *testing.T) {
	r := newRig(t, nil)
	for _, id := range []engine.ClassID{1, 2, 3} {
		if _, ok := r.qs.CostLimit(id); !ok {
			t.Fatalf("class %d has no limit", id)
		}
	}
	for _, id := range []engine.ClassID{-1, 0, 4, 99} {
		if got, ok := r.qs.CostLimit(id); ok || got != 0 {
			t.Fatalf("CostLimit(%d) = %v, %v; want 0, false", id, got, ok)
		}
	}
}

func TestDispatcherRespectsClassLimits(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	// Initial limits: ~3333 per class. Submit class-1 queries of cost
	// 2000 each: only one fits.
	a := olapQuery(1, 2000, 100)
	b := olapQuery(1, 2000, 100)
	r.eng.Submit(a)
	r.eng.Submit(b)
	r.clock.RunUntil(1)
	if a.State != engine.StateExecuting {
		t.Fatalf("first query state %v", a.State)
	}
	if b.State != engine.StateQueued {
		t.Fatal("second query should exceed the class limit")
	}
}

func TestDispatcherIsolatesClasses(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	// Class 1 full; class 2 must still flow.
	r.eng.Submit(olapQuery(1, 3000, 100))
	blocked := olapQuery(1, 3000, 100)
	r.eng.Submit(blocked)
	other := olapQuery(2, 3000, 100)
	r.eng.Submit(other)
	r.clock.RunUntil(1)
	if blocked.State != engine.StateQueued {
		t.Fatal("class 1 over-admitted")
	}
	if other.State != engine.StateExecuting {
		t.Fatal("class 2 blocked by class 1's queue")
	}
}

func TestDispatcherHeadOfLinePerClass(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	big := olapQuery(1, 9000, 100) // bigger than the class limit
	small := olapQuery(1, 500, 100)
	r.eng.Submit(big)
	r.eng.Submit(small)
	r.clock.RunUntil(1)
	// Without the starvation guard the big head blocks only itself;
	// the small one behind it still fits the limit.
	if big.State != engine.StateQueued {
		t.Fatal("oversized query must wait")
	}
	if small.State != engine.StateExecuting {
		t.Fatal("small query should pass the blocked head")
	}
}

func TestStarvationGuardReleasesOversized(t *testing.T) {
	r := newRig(t, func(c *Config) { c.StarvationGuard = true })
	r.qs.Start()
	big := olapQuery(1, 9000, 100)
	r.eng.Submit(big)
	r.clock.RunUntil(1)
	if big.State != engine.StateExecuting {
		t.Fatal("starvation guard did not release the idle class's head")
	}
}

func TestPlanAlwaysSumsToSystemLimit(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	// Drive a small mixed load across several control intervals.
	for i := 0; i < 6; i++ {
		at := float64(i * 30)
		r.clock.At(at, func() { r.eng.Submit(olapQuery(1, 1500, 40)) })
		r.clock.At(at+1, func() { r.eng.Submit(olapQuery(2, 1500, 40)) })
	}
	r.clock.RunUntil(10 * 60)
	hist := r.qs.History()
	if len(hist) < 5 {
		t.Fatalf("only %d control intervals recorded", len(hist))
	}
	for _, rec := range hist {
		if math.Abs(limitSum(rec)-10000) > 1e-6 {
			t.Fatalf("plan sum %v != system limit", limitSum(rec))
		}
		for _, row := range rec.Classes {
			if row.Limit < 0 {
				t.Fatalf("negative limit for class %d: %v", row.ID, row.Limit)
			}
		}
	}
}

func TestViolatedOLTPGainsVirtualLimit(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	// Saturate the OLTP clients: continuous slow transactions keep the
	// snapshot RT far above the 0.25 goal while OLAP classes are idle.
	submitOLTP := func(client engine.ClientID) {
		var loop func()
		loop = func() {
			q := &engine.Query{Client: client, Class: 3, Cost: 2,
				Demand: engine.Demand{Work: 1.0, CPURate: 1}}
			r.eng.Submit(q)
		}
		r.eng.OnDone(func(q *engine.Query) {
			if q.Client == client {
				loop()
			}
		})
		loop()
	}
	submitOLTP(1)
	submitOLTP(2)
	r.clock.RunUntil(15 * 60)
	hist := r.qs.History()
	last := hist[len(hist)-1]
	// OLTP (class 3) is violating badly; the planner should assign it
	// the lion's share of the virtual budget, squeezing OLAP to minimums.
	if limit(last, 3) < 8000 {
		t.Fatalf("violated OLTP limit = %v, want most of the budget (plan %v)", limit(last, 3), last.Classes)
	}
	if limit(last, 1) > 1500 || limit(last, 2) > 1500 {
		t.Fatalf("idle OLAP classes keep %v", last.Classes)
	}
	// The measurement should reflect the saturated RT (~2s with two
	// CPU-bound 1s queries sharing the box... actually 2 CPUs, so ~1s).
	if last.Measurement.OLTPRespTime < 0.5 {
		t.Fatalf("measured OLTP RT = %v, expected ~1s", last.Measurement.OLTPRespTime)
	}
	if last.Measurement.OLTPSamples == 0 {
		t.Fatal("no snapshot samples recorded")
	}
}

func TestIdleClassesMeasureVelocityOne(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	r.clock.RunUntil(120)
	hist := r.qs.History()
	for _, rec := range hist {
		if measured(rec, 1).Velocity != 1 || measured(rec, 2).Velocity != 1 {
			t.Fatalf("idle velocity = %v", rec.Measurement.Classes)
		}
	}
}

func TestVelocityMeasuredFromCompletions(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ControlInterval = 200 })
	r.qs.Start()
	// One query held ~0s then runs 60s -> velocity ~1; it finishes well
	// inside the first 200s control interval.
	q := olapQuery(1, 1000, 60)
	r.eng.Submit(q)
	r.clock.RunUntil(201)
	hist := r.qs.History()
	if len(hist) != 1 {
		t.Fatalf("%d intervals", len(hist))
	}
	v := measured(hist[0], 1).Velocity
	if v < 0.95 || v > 1 {
		t.Fatalf("measured velocity = %v, want ~1", v)
	}
	if measured(hist[0], 1).VelocitySamples != 1 {
		t.Fatalf("velocity samples = %v", hist[0].Measurement.Classes)
	}
}

func TestInFlightVelocityFallback(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ControlInterval = 100 })
	r.qs.Start()
	// A very long query: no completions in the first interval, so the
	// monitor must estimate from in-flight progress (released at ~0,
	// running since: velocity ~1).
	q := olapQuery(1, 1000, 10000)
	r.eng.Submit(q)
	r.clock.RunUntil(101)
	hist := r.qs.History()
	v := measured(hist[0], 1).Velocity
	if v < 0.9 {
		t.Fatalf("in-flight velocity estimate = %v, want ~1 for a running query", v)
	}
	if measured(hist[0], 1).VelocitySamples != 0 {
		t.Fatal("in-flight estimate should report zero completion samples")
	}
}

func TestHeldQueryDragsInFlightVelocity(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ControlInterval = 100; c.MinOLAPLimit = 0 })
	r.qs.Start()
	// Squeeze class 1 to zero by classifying its queries into a class
	// whose limit is 0... simpler: submit a query too big for the class
	// limit; it stays held, so the in-flight estimate is 0.
	q := olapQuery(1, 9000, 10000)
	r.eng.Submit(q)
	r.clock.RunUntil(101)
	v := measured(r.qs.History()[0], 1).Velocity
	if v > 0.05 {
		t.Fatalf("held-query velocity estimate = %v, want ~0", v)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	r.clock.RunUntil(120)
	n := len(r.qs.History())
	r.qs.Stop()
	r.clock.RunUntil(600)
	if len(r.qs.History()) != n {
		t.Fatal("control loop kept planning after Stop")
	}
	r.qs.Stop() // idempotent
}

func TestDoubleStartPanics(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	r.qs.Start()
}

func TestGridSolverDropIn(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Solver = solver.Grid{} })
	r.qs.Start()
	r.eng.Submit(olapQuery(1, 1500, 30))
	r.clock.RunUntil(180)
	if len(r.qs.History()) == 0 {
		t.Fatal("no plans with grid solver")
	}
}

func TestNoOLTPClassScheduler(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 2, IOCapacity: 14}, clock)
	pat := patroller.New(eng, 1, 2)
	classes := testClasses()[:2]
	cfg := DefaultConfig()
	cfg.SystemCostLimit = 10000
	qs, err := New(cfg, eng, pat, classes, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs.Start()
	eng.Submit(olapQuery(1, 1000, 30))
	clock.RunUntil(120)
	hist := qs.History()
	if len(hist) == 0 {
		t.Fatal("no planning without OLTP class")
	}
	if math.Abs(limitSum(hist[0])-10000) > 1e-6 {
		t.Fatal("plan sum wrong without OLTP class")
	}
}

// limit returns class id's limit in rec (0 when the record has no row).
func limit(rec PlanRecord, id engine.ClassID) float64 {
	row, _ := rec.Class(id)
	return row.Limit
}

// limitSum totals rec's limits in row (class-ID) order.
func limitSum(rec PlanRecord) float64 {
	total := 0.0
	for _, row := range rec.Classes {
		total += row.Limit
	}
	return total
}

// measured returns class id's measurement row in rec.
func measured(rec PlanRecord, id engine.ClassID) ClassMeasurement {
	m, _ := rec.Measurement.Class(id)
	return m
}
