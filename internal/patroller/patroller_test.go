package patroller

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/simclock"
)

func newRig(managed ...engine.ClassID) (*Patroller, *engine.Engine, *simclock.Clock) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
	p := New(eng, managed...)
	return p, eng, clock
}

func q(class engine.ClassID, cost, work float64) *engine.Query {
	return &engine.Query{
		Class:  class,
		Cost:   cost,
		Demand: engine.Demand{Work: work, CPURate: 1},
	}
}

func TestUnmanagedClassPassesThrough(t *testing.T) {
	p, eng, _ := newRig(1)
	query := q(2, 100, 10)
	eng.Submit(query)
	if query.State != engine.StateExecuting {
		t.Fatalf("unmanaged query state = %v", query.State)
	}
	if p.HeldCount() != 0 || len(p.ControlTable()) != 0 {
		t.Fatal("unmanaged query recorded")
	}
}

func TestManagedQueryHeldWithoutPolicy(t *testing.T) {
	p, eng, clock := newRig(1)
	query := q(1, 100, 10)
	eng.Submit(query)
	if query.State != engine.StateQueued {
		t.Fatalf("state = %v, want queued", query.State)
	}
	clock.RunUntil(5)
	if query.State != engine.StateQueued {
		t.Fatal("query started without a release")
	}
	if p.HeldCount() != 1 {
		t.Fatalf("HeldCount = %d", p.HeldCount())
	}
}

func TestExplicitRelease(t *testing.T) {
	p, eng, clock := newRig(1)
	query := q(1, 100, 10)
	eng.Submit(query)
	clock.RunUntil(3)
	if err := p.Release(query.ID); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if query.State != engine.StateDone {
		t.Fatalf("state = %v", query.State)
	}
	info := p.ControlTable()[0]
	if info.State != Completed {
		t.Fatalf("control table state = %v", info.State)
	}
	if info.ReleaseTime != 3 || info.SubmitTime != 0 {
		t.Fatalf("times = %+v", info)
	}
	if info.WaitTime(clock.Now()) != 3 {
		t.Fatalf("wait = %v, want 3", info.WaitTime(clock.Now()))
	}
}

func TestReleaseUnknownFails(t *testing.T) {
	p, _, _ := newRig(1)
	if err := p.Release(999); err == nil {
		t.Fatal("release of unknown query succeeded")
	}
}

func TestDoubleReleaseFails(t *testing.T) {
	p, eng, _ := newRig(1)
	query := q(1, 100, 10)
	eng.Submit(query)
	if err := p.Release(query.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(query.ID); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestSystemLimitPolicyAdmitsWithinBudget(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(SystemLimit{Limit: 250})
	a, b, c := q(1, 100, 10), q(1, 100, 10), q(1, 100, 10)
	eng.Submit(a)
	eng.Submit(b)
	eng.Submit(c)
	clock.RunUntil(0.001) // let the deferred poke run
	if a.State != engine.StateExecuting || b.State != engine.StateExecuting {
		t.Fatal("first two queries should be admitted (200 <= 250)")
	}
	if c.State != engine.StateQueued {
		t.Fatal("third query should wait (300 > 250)")
	}
	clock.RunUntil(11) // a and b finish, freeing budget
	if c.State == engine.StateQueued {
		t.Fatal("third query not released after completions")
	}
}

func TestSystemLimitSkipsOversizedQueries(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(SystemLimit{Limit: 100})
	big := q(1, 500, 10)
	small := q(1, 50, 10)
	eng.Submit(big)
	eng.Submit(small)
	clock.RunUntil(1)
	if big.State != engine.StateQueued {
		t.Fatal("oversized query must never run")
	}
	if small.State == engine.StateQueued {
		t.Fatal("small query blocked behind oversized head")
	}
}

func TestArrivalOrderRespected(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(SystemLimit{Limit: 100})
	first := q(1, 80, 10)
	second := q(1, 80, 5)
	eng.Submit(first)
	eng.Submit(second)
	clock.RunUntil(0.001)
	if first.State != engine.StateExecuting || second.State != engine.StateQueued {
		t.Fatal("arrival order violated")
	}
	_ = p
}

func TestInterceptOverheadInflatesDemand(t *testing.T) {
	p, eng, clock := newRig(1)
	p.InterceptOverheadCPU = 5
	p.SetPolicy(SystemLimit{Limit: 1000})
	query := q(1, 10, 10)
	eng.Submit(query)
	clock.Run()
	if got := query.ExecutionTime(); got < 14.9 {
		t.Fatalf("exec = %v, want ~15 with overhead", got)
	}
}

func TestCallbacksFire(t *testing.T) {
	p, eng, clock := newRig(1)
	var arrivals, releases, dones []engine.QueryID
	p.OnArrival = func(qi *QueryInfo) { arrivals = append(arrivals, qi.ID) }
	p.OnRelease = func(qi *QueryInfo) { releases = append(releases, qi.ID) }
	p.OnManagedDone = func(qi *QueryInfo) { dones = append(dones, qi.ID) }
	p.SetPolicy(SystemLimit{Limit: 1000})
	query := q(1, 10, 1)
	eng.Submit(query)
	clock.Run()
	if len(arrivals) != 1 || len(releases) != 1 || len(dones) != 1 {
		t.Fatalf("callbacks = %d/%d/%d", len(arrivals), len(releases), len(dones))
	}
}

func TestStatsAccumulate(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(SystemLimit{Limit: 100})
	a, b := q(1, 80, 10), q(1, 80, 10)
	eng.Submit(a)
	eng.Submit(b)
	clock.Run()
	st := p.Stats()
	if st.Intercepted != 2 || st.Released != 2 || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WaitSeconds <= 0 {
		t.Fatal("second query must have waited")
	}
}

func TestActiveCostByClass(t *testing.T) {
	p, eng, clock := newRig(1, 2)
	p.SetPolicy(SystemLimit{Limit: 1000})
	eng.Submit(q(1, 100, 50))
	eng.Submit(q(2, 70, 50))
	clock.RunUntil(0.001)
	m := p.ActiveCostByClass()
	if m[1] != 100 || m[2] != 70 {
		t.Fatalf("ActiveCostByClass = %v", m)
	}
	if p.ActiveCount() != 2 {
		t.Fatalf("ActiveCount = %d", p.ActiveCount())
	}
}

func TestPolicySwapTriggersReevaluation(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(SystemLimit{Limit: 10}) // too small to admit
	query := q(1, 100, 5)
	eng.Submit(query)
	clock.RunUntil(1)
	if query.State != engine.StateQueued {
		t.Fatal("query admitted beyond limit")
	}
	p.SetPolicy(SystemLimit{Limit: 1000})
	if query.State != engine.StateExecuting {
		t.Fatal("policy swap did not release")
	}
}

func TestViewDeterministicOrder(t *testing.T) {
	p, eng, clock := newRig(1)
	for i := 0; i < 20; i++ {
		eng.Submit(q(1, float64(i+1), 10))
	}
	clock.RunUntil(0.001)
	v := p.view()
	for i := 1; i < len(v.Held); i++ {
		if v.Held[i].SubmitTime < v.Held[i-1].SubmitTime {
			t.Fatal("held queries out of arrival order")
		}
	}
}

func TestCompactOrderKeepsHeldQueries(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(SystemLimit{Limit: 150})
	// Churn many small queries through while one oversized query stays
	// held, forcing order compaction.
	big := q(1, 500, 1)
	eng.Submit(big)
	for i := 0; i < 100; i++ {
		eng.Submit(q(1, 100, 0.1))
		clock.RunUntil(clock.Now() + 0.2)
	}
	if big.State != engine.StateQueued {
		t.Fatal("oversized query should still be held")
	}
	v := p.view()
	if len(v.Held) != 1 || v.Held[0].ID != big.ID {
		t.Fatalf("view lost the held query after compaction: %d held", len(v.Held))
	}
}

func TestGroupThresholds(t *testing.T) {
	costs := make([]float64, 100)
	for i := range costs {
		costs[i] = float64(i + 1) // 1..100
	}
	th := ThresholdsFromSample(costs)
	if th.MediumMin <= 75 || th.MediumMin > 85 {
		t.Fatalf("MediumMin = %v, want ~80th percentile", th.MediumMin)
	}
	if th.LargeMin <= 90 || th.LargeMin > 97 {
		t.Fatalf("LargeMin = %v, want ~95th percentile", th.LargeMin)
	}
	if th.GroupOf(10) != Small || th.GroupOf(th.MediumMin) != Medium || th.GroupOf(99) != Large {
		t.Fatal("group classification wrong")
	}
}

func TestGroupPriorityReleasesHigherClassFirst(t *testing.T) {
	p, eng, clock := newRig(1, 2)
	pol := GroupPriority{
		TotalLimit:    100,
		Thresholds:    GroupThresholds{MediumMin: 1e9, LargeMin: 1e9},
		MaxConcurrent: map[Group]int{},
		Priority:      map[engine.ClassID]int{1: 1, 2: 2},
	}
	p.SetPolicy(pol)
	low := q(1, 80, 10)
	high := q(2, 80, 10)
	eng.Submit(low) // arrives first
	eng.Submit(high)
	clock.RunUntil(0.001)
	if high.State != engine.StateExecuting {
		t.Fatal("high-priority class not released first")
	}
	if low.State != engine.StateQueued {
		t.Fatal("low-priority class released beyond budget")
	}
}

func TestGroupPriorityEqualPriorityFIFO(t *testing.T) {
	p, eng, clock := newRig(1, 2)
	p.SetPolicy(GroupPriority{
		TotalLimit: 100,
		Thresholds: GroupThresholds{MediumMin: 1e9, LargeMin: 1e9},
	})
	first := q(2, 80, 10)
	second := q(1, 80, 10)
	eng.Submit(first)
	eng.Submit(second)
	clock.RunUntil(0.001)
	if first.State != engine.StateExecuting || second.State != engine.StateQueued {
		t.Fatal("equal priorities must fall back to arrival order")
	}
}

func TestGroupPriorityConcurrencyCaps(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(GroupPriority{
		TotalLimit:    1e9,
		Thresholds:    GroupThresholds{MediumMin: 50, LargeMin: 100},
		MaxConcurrent: map[Group]int{Large: 1, Medium: 2},
	})
	larges := []*engine.Query{q(1, 200, 10), q(1, 200, 10)}
	mediums := []*engine.Query{q(1, 60, 10), q(1, 60, 10), q(1, 60, 10)}
	small := q(1, 10, 10)
	for _, query := range append(append([]*engine.Query{}, larges...), mediums...) {
		eng.Submit(query)
	}
	eng.Submit(small)
	clock.RunUntil(0.001)
	if larges[0].State != engine.StateExecuting || larges[1].State != engine.StateQueued {
		t.Fatal("large cap violated")
	}
	running := 0
	for _, m := range mediums {
		if m.State == engine.StateExecuting {
			running++
		}
	}
	if running != 2 {
		t.Fatalf("%d mediums running, want 2", running)
	}
	if small.State != engine.StateExecuting {
		t.Fatal("uncapped small blocked")
	}
}

func TestGroupPriorityRespectsBudgetAcrossGroups(t *testing.T) {
	p, eng, clock := newRig(1)
	p.SetPolicy(GroupPriority{
		TotalLimit: 100,
		Thresholds: GroupThresholds{MediumMin: 50, LargeMin: 1000},
	})
	eng.Submit(q(1, 60, 10))
	blocked := q(1, 60, 10)
	eng.Submit(blocked)
	clock.RunUntil(0.001)
	if blocked.State != engine.StateQueued {
		t.Fatal("budget exceeded across groups")
	}
}

func TestDefaultGroupCaps(t *testing.T) {
	caps := DefaultGroupCaps()
	if caps[Large] != 1 || caps[Medium] <= caps[Large] || caps[Small] <= caps[Medium] {
		t.Fatalf("caps = %v; want progressively looser", caps)
	}
}

func TestPolicyFuncAdapter(t *testing.T) {
	called := false
	var pf Policy = PolicyFunc(func(v *View) []engine.QueryID {
		called = true
		return nil
	})
	pf.SelectReleases(&View{})
	if !called {
		t.Fatal("PolicyFunc did not delegate")
	}
}

func TestViewAggregates(t *testing.T) {
	v := &View{Active: []*QueryInfo{
		{ID: 1, Class: 1, Cost: 10},
		{ID: 2, Class: 2, Cost: 20},
		{ID: 3, Class: 1, Cost: 5},
	}}
	if v.ActiveCost() != 35 {
		t.Fatalf("ActiveCost = %v", v.ActiveCost())
	}
	by := v.ActiveCostByClass()
	if by[1] != 15 || by[2] != 20 {
		t.Fatalf("ActiveCostByClass = %v", by)
	}
}

// A class the patroller does not manage — below, between or above the
// managed IDs, or negative — passes straight through: it never enters
// the control table, the held or active sets, or the stats.
func TestUnmanagedClassesNeverEnterTable(t *testing.T) {
	p, eng, clock := newRig(2, 4)
	for _, class := range []engine.ClassID{0, 1, 3, 5, 1000, -1, -1 << 40} {
		if p.Manages(class) {
			t.Errorf("Manages(%d) = true", class)
		}
		query := q(class, 100, 1)
		eng.Submit(query)
		if query.State != engine.StateExecuting {
			t.Fatalf("class %d: unmanaged query state = %v, want executing", class, query.State)
		}
	}
	clock.Run()
	if n := len(p.ControlTable()); n != 0 || p.HeldCount() != 0 || p.ActiveCount() != 0 {
		t.Fatalf("unmanaged queries recorded: table %d held %d active %d", n, p.HeldCount(), p.ActiveCount())
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("unmanaged queries counted: %+v", st)
	}
	for _, class := range []engine.ClassID{2, 4} {
		if !p.Manages(class) {
			t.Errorf("Manages(%d) = false", class)
		}
		eng.Submit(q(class, 100, 1))
	}
	if got := len(p.ControlTable()); got != 2 {
		t.Fatalf("managed queries recorded %d rows, want 2", got)
	}
}
