package core

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
)

// TestDispatcherInvariantProperty drives random OLAP arrival patterns
// through the Query Scheduler and checks the dispatcher's contract at
// every release: the class *receiving* the release never exceeds its
// current cost limit (the starvation guard is off, so the bound is
// strict). Other classes may legitimately sit above a freshly shrunken
// limit — admission control cannot preempt — so the invariant is scoped
// to the admitting class.
func TestDispatcherInvariantProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := seed
		next := func() float64 {
			r = r*1664525 + 1013904223
			return float64(r%1000)/1000.0 + 1e-3
		}
		clock := simclock.New()
		eng := engine.New(engine.Config{CPUCapacity: 2, IOCapacity: 14}, clock)
		pat := patroller.New(eng, 1, 2)
		cfg := DefaultConfig()
		cfg.SystemCostLimit = 8000 + next()*22000
		qs, err := New(cfg, eng, pat, testClasses(),
			func() []engine.ClientID { return nil })
		if err != nil {
			t.Fatal(err)
		}

		violated := false
		pat.OnRelease(func(qi *patroller.QueryInfo) {
			limit, _ := qs.CostLimit(qi.Class)
			if cost := pat.ActiveCostByClass()[qi.Class]; cost > limit+1e-6 {
				t.Logf("violation: class %d cost %.1f > limit %.1f at t=%.1f",
					qi.Class, cost, limit, clock.Now())
				violated = true
			}
		})
		qs.Start()

		n := int(next()*50) + 10
		for i := 0; i < n; i++ {
			class := engine.ClassID(1 + int(next()*2)%2)
			cost := next() * cfg.SystemCostLimit / 2
			work := next() * 60
			at := next() * 1800
			clock.At(at, func() {
				eng.Submit(&engine.Query{
					Class:  class,
					Cost:   cost,
					Demand: engine.Demand{Work: work, CPURate: 0.3, IORate: 1},
				})
			})
		}
		clock.RunUntil(3600)
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherInvariantSurvivesPlanShrink checks the subtle case: when
// a re-plan shrinks a class's limit below its already-executing cost, the
// dispatcher must simply stop admitting (it cannot preempt), and resume
// only once enough queries drain.
func TestDispatcherInvariantSurvivesPlanShrink(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 2, IOCapacity: 14}, clock)
	pat := patroller.New(eng, 1, 2)
	cfg := DefaultConfig()
	cfg.SystemCostLimit = 10000
	classes := testClasses()
	qs, err := New(cfg, eng, pat, classes, func() []engine.ClientID { return []engine.ClientID{9} })
	if err != nil {
		t.Fatal(err)
	}
	qs.Start()

	// Fill class 1 close to its initial ~3333 limit with long queries.
	for i := 0; i < 3; i++ {
		eng.Submit(&engine.Query{Class: 1, Cost: 1000,
			Demand: engine.Demand{Work: 5000, CPURate: 0.2, IORate: 1}})
	}
	// Saturate the OLTP snapshot with a violating loop so the planner
	// shrinks the OLAP limits hard.
	var loop func()
	loop = func() {
		eng.Submit(&engine.Query{Client: 9, Class: 3, Cost: 2,
			Demand: engine.Demand{Work: 0.35, CPURate: 1}})
	}
	eng.OnDone(func(q *engine.Query) {
		if q.Client == 9 {
			loop()
		}
	})
	loop()
	clock.RunUntil(10 * 60)

	// Class 1's limit should now be far below its executing 3000 cost.
	if lim, _ := qs.CostLimit(1); lim >= 3000 {
		t.Skipf("planner did not shrink class 1 (limit %v); scenario not exercised", lim)
	}
	// A new class-1 query must NOT be admitted while over the limit.
	blocked := &engine.Query{Class: 1, Cost: 400,
		Demand: engine.Demand{Work: 10, CPURate: 0.2, IORate: 1}}
	eng.Submit(blocked)
	clock.RunUntil(11 * 60)
	if blocked.State != engine.StateQueued {
		t.Fatalf("query admitted while class is over its shrunken limit (state %v)", blocked.State)
	}
}
