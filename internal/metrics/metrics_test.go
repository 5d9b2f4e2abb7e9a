package metrics

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func testClasses() []*workload.Class {
	return []*workload.Class{
		{ID: 1, Name: "olap", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.5}, Importance: 1},
		{ID: 2, Name: "oltp", Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 1.0}, Importance: 2},
	}
}

func testSched(periods int, length float64) workload.Schedule {
	s := workload.Schedule{PeriodSeconds: length}
	for i := 0; i < periods; i++ {
		s.Clients = append(s.Clients, map[engine.ClassID]int{})
	}
	return s
}

func newRig(t *testing.T) (*Collector, *engine.Engine, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
	col := NewCollector(eng, testClasses(), testSched(3, 10))
	return col, eng, clock
}

func submit(eng *engine.Engine, class engine.ClassID, work float64) *engine.Query {
	q := &engine.Query{Class: class, Cost: 7, Demand: engine.Demand{Work: work, CPURate: 1}}
	eng.Submit(q)
	return q
}

func TestClassesSortedByIDRegardlessOfRegistrationOrder(t *testing.T) {
	// Register the classes in descending-ID order; the accessors must
	// still return ascending IDs — report rendering iterates Classes()
	// and its order must never depend on map iteration or input order.
	classes := testClasses()
	reversed := []*workload.Class{classes[1], classes[0]}
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
	col := NewCollector(eng, reversed, testSched(3, 10))

	ids := col.ClassIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ClassIDs() = %v, want strictly ascending", ids)
		}
	}
	got := col.Classes()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Classes() order = %v, want sorted by ID", []engine.ClassID{got[0].ID, got[1].ID})
	}
	if col.Class(2) == nil || col.Class(2).Name != "oltp" {
		t.Fatalf("Class(2) lookup failed")
	}
	if col.Class(42) != nil {
		t.Fatal("Class(42) should be nil for untracked ID")
	}
}

func TestCompletionsBucketedByPeriod(t *testing.T) {
	col, eng, clock := newRig(t)
	submit(eng, 1, 2)                          // completes at t=2, period 0
	clock.At(11, func() { submit(eng, 1, 2) }) // completes at 13, period 1
	clock.At(12, func() { submit(eng, 1, 2) }) // completes at 14, period 1
	clock.Run()
	if got := col.Agg(0, 1).Completed; got != 1 {
		t.Fatalf("period 0 completions = %d", got)
	}
	if got := col.Agg(1, 1).Completed; got != 2 {
		t.Fatalf("period 1 completions = %d", got)
	}
	if got := col.Agg(2, 1).Completed; got != 0 {
		t.Fatalf("period 2 completions = %d", got)
	}
}

func TestMetricSelectsByClassKind(t *testing.T) {
	col, eng, clock := newRig(t)
	submit(eng, 1, 2) // velocity 1 (no queueing)
	submit(eng, 2, 3) // RT 3
	clock.Run()
	v, ok := col.Metric(0, 1)
	if !ok || math.Abs(v-1) > 1e-9 {
		t.Fatalf("OLAP metric = %v, %v; want velocity 1", v, ok)
	}
	rt, ok := col.Metric(0, 2)
	if !ok || math.Abs(rt-3) > 1e-9 {
		t.Fatalf("OLTP metric = %v, %v; want RT 3", rt, ok)
	}
}

func TestMetricUnmeasurableWhenEmpty(t *testing.T) {
	col, _, _ := newRig(t)
	if _, ok := col.Metric(0, 1); ok {
		t.Fatal("empty period reported measurable")
	}
	if _, ok := col.GoalMet(0, 1); ok {
		t.Fatal("empty period reported goal status")
	}
}

func TestGoalMet(t *testing.T) {
	col, eng, clock := newRig(t)
	submit(eng, 2, 0.5) // RT 0.5 <= 1.0 goal
	clock.At(11, func() { submit(eng, 2, 5) })
	clock.Run()
	met, ok := col.GoalMet(0, 2)
	if !ok || !met {
		t.Fatal("period 0 OLTP goal should be met")
	}
	met, ok = col.GoalMet(1, 2)
	if !ok || met {
		t.Fatal("period 1 OLTP goal should be missed (RT 5)")
	}
}

func TestGoalSatisfactionSkipsUnmeasurable(t *testing.T) {
	col, eng, clock := newRig(t)
	submit(eng, 2, 0.5)                        // period 0: met
	clock.At(11, func() { submit(eng, 2, 5) }) // period 1: missed
	// period 2 empty: unmeasurable, excluded
	clock.Run()
	if got := col.GoalSatisfaction(2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("satisfaction = %v, want 0.5", got)
	}
}

func TestGoalSatisfactionNoData(t *testing.T) {
	col, _, _ := newRig(t)
	if got := col.GoalSatisfaction(1); got != 0 {
		t.Fatalf("satisfaction with no data = %v", got)
	}
}

func TestUntrackedClassIgnored(t *testing.T) {
	col, eng, clock := newRig(t)
	submit(eng, 99, 1) // class not registered
	clock.Run()
	if col.Agg(0, 1).Completed != 0 {
		t.Fatal("untracked query leaked into class 1")
	}
}

func TestAggOutOfRangePanics(t *testing.T) {
	col, _, _ := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range period did not panic")
		}
	}()
	col.Agg(99, 1)
}

func TestAggUnknownClassPanics(t *testing.T) {
	col, _, _ := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown class did not panic")
		}
	}()
	col.Agg(0, 42)
}

func TestVelocityAggregation(t *testing.T) {
	col, eng, clock := newRig(t)
	// Two queries: one intercepted-free (velocity 1), one held 3s before
	// a 1s execution (velocity 0.25).
	submit(eng, 1, 1)
	held := &engine.Query{Class: 1, Cost: 1, Demand: engine.Demand{Work: 1, CPURate: 1}}
	eng.SetInterceptor(holdInterceptor{})
	eng.Submit(held)
	eng.SetInterceptor(nil)
	clock.At(3, func() { eng.Start(held) })
	clock.Run()
	agg := col.Agg(0, 1)
	if agg.Completed != 2 {
		t.Fatalf("completions = %d", agg.Completed)
	}
	want := (1.0 + 0.25) / 2
	if got := agg.Velocity.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean velocity = %v, want %v", got, want)
	}
	if got := agg.Cost.Mean(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("mean cost = %v, want 4", got)
	}
}

type holdInterceptor struct{}

func (holdInterceptor) Intercept(*engine.Query) bool { return true }

// TestPendingCountsNonCompleted is the regression test for the
// undercounting bug: period tables derived only from completions made
// still-queued and still-running work invisible. Submitted buckets by
// arrival, and Pending reports the backlog at each period's end.
func TestPendingCountsNonCompleted(t *testing.T) {
	col, eng, clock := newRig(t)
	submit(eng, 1, 2) // completes at t=2, inside period 0

	// Held in period 0, released at t=12 (period 1), completes at t=13.
	crossing := &engine.Query{Class: 1, Cost: 1, Demand: engine.Demand{Work: 1, CPURate: 1}}
	eng.SetInterceptor(holdInterceptor{})
	eng.Submit(crossing)
	eng.SetInterceptor(nil)
	clock.At(12, func() { eng.Start(crossing) })

	// Submitted in period 1 and never released: backlog forever.
	clock.At(15, func() {
		eng.SetInterceptor(holdInterceptor{})
		stuck := &engine.Query{Class: 1, Cost: 1, Demand: engine.Demand{Work: 1, CPURate: 1}}
		eng.Submit(stuck)
		eng.SetInterceptor(nil)
	})
	clock.Run()

	if got := col.Agg(0, 1).Submitted; got != 2 {
		t.Fatalf("period 0 submitted = %d, want 2", got)
	}
	if got := col.Agg(1, 1).Submitted; got != 1 {
		t.Fatalf("period 1 submitted = %d, want 1", got)
	}
	if got := col.Agg(0, 1).Completed; got != 1 {
		t.Fatalf("period 0 completed = %d, want 1", got)
	}
	if got := col.Pending(0, 1); got != 1 {
		t.Fatalf("Pending(0) = %d, want 1 (query held across the boundary)", got)
	}
	if got := col.Pending(1, 1); got != 1 {
		t.Fatalf("Pending(1) = %d, want 1 (stuck query)", got)
	}
	if got := col.Pending(2, 1); got != 1 {
		t.Fatalf("Pending(2) = %d, want 1 (stuck query never completes)", got)
	}
	if got := col.Pending(2, 2); got != 0 {
		t.Fatalf("Pending for idle class = %d, want 0", got)
	}
}

func TestPendingOutOfRangePanics(t *testing.T) {
	col, _, _ := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range period did not panic")
		}
	}()
	col.Pending(3, 1)
}

func TestRespQuantile(t *testing.T) {
	col, eng, clock := newRig(t)
	// 20 queries with response times 0.1..2.0s (work == RT, no contention).
	for i := 1; i <= 20; i++ {
		submit(eng, 2, float64(i)*0.1)
	}
	clock.Run()
	p95 := col.RespQuantile(0, 2, 0.95)
	if p95 < 1.7 || p95 > 2.0 {
		t.Fatalf("p95 = %v, want near 1.9", p95)
	}
	if med := col.RespQuantile(0, 2, 0.5); med < 0.8 || med > 1.3 {
		t.Fatalf("median = %v, want near 1.05", med)
	}
	if col.RespQuantile(1, 2, 0.95) != 0 {
		t.Fatal("empty period quantile should be 0")
	}
}
