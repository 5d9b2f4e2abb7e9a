package patroller

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// TestSystemLimitInvariantProperty drives random arrival patterns through
// the SystemLimit policy and asserts the core admission invariant: the
// total cost of executing managed queries never exceeds the limit, at any
// instant, regardless of arrival order, costs, or service times.
func TestSystemLimitInvariantProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := seed
		next := func() float64 {
			r = r*1664525 + 1013904223
			return float64(r%1000)/1000.0 + 1e-3
		}
		clock := simclock.New()
		eng := engine.New(engine.Config{CPUCapacity: 2, IOCapacity: 4}, clock)
		p := New(eng, 1)
		limit := 500 + next()*2000
		p.SetPolicy(SystemLimit{Limit: limit})

		violated := false
		check := func() {
			total := 0.0
			for _, c := range p.ActiveCostByClass() {
				total += c
			}
			if total > limit+1e-6 {
				violated = true
			}
		}
		p.OnRelease(func(*QueryInfo) { check() })

		n := int(next()*40) + 5
		for i := 0; i < n; i++ {
			cost := next() * limit * 1.2 // some queries exceed the limit outright
			work := next() * 5
			at := next() * 30
			clock.At(at, func() {
				eng.Submit(&engine.Query{
					Class:  1,
					Cost:   cost,
					Demand: engine.Demand{Work: work, CPURate: 1},
				})
			})
		}
		clock.RunUntil(500)
		check()
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupPriorityInvariantProperty does the same for the QP baseline,
// additionally asserting the per-group concurrency caps.
func TestGroupPriorityInvariantProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := seed
		next := func() float64 {
			r = r*1664525 + 1013904223
			return float64(r%1000)/1000.0 + 1e-3
		}
		clock := simclock.New()
		eng := engine.New(engine.Config{CPUCapacity: 2, IOCapacity: 4}, clock)
		p := New(eng, 1, 2)
		limit := 1000 + next()*3000
		th := GroupThresholds{MediumMin: limit / 5, LargeMin: limit / 2}
		caps := map[Group]int{Large: 1, Medium: 2, Small: 5}
		p.SetPolicy(GroupPriority{
			TotalLimit:    limit,
			Thresholds:    th,
			MaxConcurrent: caps,
			Priority:      map[engine.ClassID]int{1: 1, 2: 2},
		})

		violated := false
		check := func() {
			total := 0.0
			running := map[Group]int{}
			for _, e := range p.active {
				total += e.info.Cost
				running[th.GroupOf(e.info.Cost)]++
			}
			if total > limit+1e-6 {
				violated = true
			}
			for g, cap := range caps {
				if running[g] > cap {
					violated = true
				}
			}
		}
		p.OnRelease(func(*QueryInfo) { check() })

		n := int(next()*40) + 5
		for i := 0; i < n; i++ {
			cost := next() * limit
			work := next() * 5
			class := engine.ClassID(1 + int(next()*2)%2)
			at := next() * 30
			clock.At(at, func() {
				eng.Submit(&engine.Query{
					Class:  class,
					Cost:   cost,
					Demand: engine.Demand{Work: work, CPURate: 1},
				})
			})
		}
		clock.RunUntil(500)
		check()
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
