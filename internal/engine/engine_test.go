package engine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

// newTestEngine returns an engine with exact processor sharing (no MPL
// overhead) so timing assertions are closed-form.
func newTestEngine(cpu, io float64) (*Engine, *simclock.Clock) {
	clock := simclock.New()
	e := New(Config{CPUCapacity: cpu, IOCapacity: io}, clock)
	return e, clock
}

func cpuQuery(work float64) *Query {
	return &Query{Demand: Demand{Work: work, CPURate: 1}}
}

func ioQuery(work float64) *Query {
	return &Query{Demand: Demand{Work: work, IORate: 1}}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestSingleQueryRunsAtFullSpeed(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	e.Submit(q)
	clock.Run()
	if q.State != StateDone {
		t.Fatalf("state = %v", q.State)
	}
	if !almost(q.ExecutionTime(), 10) {
		t.Fatalf("exec = %v, want 10", q.ExecutionTime())
	}
	if !almost(q.Velocity(), 1) {
		t.Fatalf("velocity = %v, want 1 with no queueing", q.Velocity())
	}
}

func TestTwoCPUQueriesShareOneCPU(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	a, b := cpuQuery(10), cpuQuery(10)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	if !almost(a.ExecutionTime(), 20) || !almost(b.ExecutionTime(), 20) {
		t.Fatalf("exec = %v/%v, want 20 each under 2x sharing", a.ExecutionTime(), b.ExecutionTime())
	}
}

func TestTwoCPUQueriesOnTwoCPUsDoNotInterfere(t *testing.T) {
	e, clock := newTestEngine(2, 1)
	a, b := cpuQuery(10), cpuQuery(10)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	if !almost(a.ExecutionTime(), 10) || !almost(b.ExecutionTime(), 10) {
		t.Fatalf("exec = %v/%v, want 10 each", a.ExecutionTime(), b.ExecutionTime())
	}
}

func TestCPUAndIOQueriesDoNotInterfere(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	c, i := cpuQuery(10), ioQuery(10)
	e.Submit(c)
	e.Submit(i)
	clock.Run()
	if !almost(c.ExecutionTime(), 10) || !almost(i.ExecutionTime(), 10) {
		t.Fatalf("exec = %v/%v, want 10 each on disjoint stations", c.ExecutionTime(), i.ExecutionTime())
	}
}

func TestMixedDemandLimitedByWorstStation(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	// Query using both stations, plus two pure-I/O competitors: the I/O
	// station runs at 1/3 speed, which throttles the mixed query.
	mixed := &Query{Demand: Demand{Work: 9, CPURate: 0.1, IORate: 1}}
	e.Submit(mixed)
	e.Submit(ioQuery(9))
	e.Submit(ioQuery(9))
	clock.Run()
	if !almost(mixed.ExecutionTime(), 27) {
		t.Fatalf("exec = %v, want 27 (I/O bound at 1/3 speed)", mixed.ExecutionTime())
	}
}

func TestLateArrivalSlowsExistingQuery(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	a := cpuQuery(10)
	e.Submit(a)
	var b *Query
	clock.At(5, func() {
		b = cpuQuery(10)
		e.Submit(b)
	})
	clock.Run()
	// a runs alone for 5s (5 work done), then shares: remaining 5 at
	// rate 1/2 -> finishes at t=15.
	if !almost(a.DoneTime, 15) {
		t.Fatalf("a done at %v, want 15", a.DoneTime)
	}
	// b: shares until 15 (5 work done), then alone: finishes at 20.
	if !almost(b.DoneTime, 20) {
		t.Fatalf("b done at %v, want 20", b.DoneTime)
	}
}

func TestParallelQueryUsesMultipleCPUs(t *testing.T) {
	e, clock := newTestEngine(2, 1)
	q := &Query{Demand: Demand{Work: 5, CPURate: 2}} // 10 CPU-seconds at degree 2
	e.Submit(q)
	clock.Run()
	if !almost(q.ExecutionTime(), 5) {
		t.Fatalf("exec = %v, want 5 with both CPUs", q.ExecutionTime())
	}
	st := e.Stats()
	if !almost(st.CPUSecondsUsed, 10) {
		t.Fatalf("CPU used = %v, want 10", st.CPUSecondsUsed)
	}
}

func TestContentionOverheadSlowsEveryone(t *testing.T) {
	clock := simclock.New()
	e := New(Config{CPUCapacity: 4, IOCapacity: 4, ContentionAlpha: 0.5}, clock)
	a, b := cpuQuery(10), cpuQuery(10)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	// Two queries, plenty of CPU, but overhead 1+0.5*(2-1) = 1.5.
	if !almost(a.ExecutionTime(), 15) {
		t.Fatalf("exec = %v, want 15 with 1.5x overhead", a.ExecutionTime())
	}
}

func TestInterceptorHoldAndStart(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	var held *Query
	e.SetInterceptor(interceptorFunc(func(q *Query) bool {
		held = q
		return true
	}))
	q := cpuQuery(10)
	e.Submit(q)
	if q.State != StateQueued {
		t.Fatalf("state = %v, want queued", q.State)
	}
	clock.At(7, func() { e.Start(held) })
	clock.Run()
	if !almost(q.DoneTime, 17) {
		t.Fatalf("done at %v, want 17", q.DoneTime)
	}
	if !almost(q.ResponseTime(), 17) || !almost(q.ExecutionTime(), 10) {
		t.Fatalf("resp/exec = %v/%v", q.ResponseTime(), q.ExecutionTime())
	}
	if !almost(q.Velocity(), 10.0/17) {
		t.Fatalf("velocity = %v, want 10/17", q.Velocity())
	}
}

type interceptorFunc func(*Query) bool

func (f interceptorFunc) Intercept(q *Query) bool { return f(q) }

func TestInterceptorPassThrough(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.SetInterceptor(interceptorFunc(func(q *Query) bool { return false }))
	q := cpuQuery(1)
	e.Submit(q)
	if q.State != StateExecuting {
		t.Fatalf("state = %v, want executing", q.State)
	}
	clock.Run()
}

func TestInterceptorMayInflateDemand(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.SetInterceptor(interceptorFunc(func(q *Query) bool {
		q.Demand.Work += 5
		return false
	}))
	q := cpuQuery(10)
	e.Submit(q)
	clock.Run()
	if !almost(q.ExecutionTime(), 15) {
		t.Fatalf("exec = %v, want inflated 15", q.ExecutionTime())
	}
}

func TestOnDoneListenersFireInOrder(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	var order []int
	e.OnDone(func(*Query) { order = append(order, 1) })
	e.OnDone(func(*Query) { order = append(order, 2) })
	e.Submit(cpuQuery(1))
	clock.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("listener order %v", order)
	}
}

func TestSubmitFromListener(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	count := 0
	e.OnDone(func(q *Query) {
		count++
		if count < 5 {
			e.Submit(cpuQuery(2))
		}
	})
	e.Submit(cpuQuery(2))
	clock.Run()
	if count != 5 {
		t.Fatalf("chained %d completions, want 5", count)
	}
	if !almost(clock.Now(), 10) {
		t.Fatalf("finished at %v, want 10", clock.Now())
	}
}

func TestSnapshotMonitorRecordsLastFinished(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	if _, ok := e.LastFinished(3); ok {
		t.Fatal("snapshot exists before any completion")
	}
	q1 := cpuQuery(4)
	q1.Client = 3
	q1.Class = 9
	q1.Cost = 42
	e.Submit(q1)
	clock.Run()
	s, ok := e.LastFinished(3)
	if !ok || !almost(s.ExecTime, 4) || s.Class != 9 || s.QueryCost != 42 {
		t.Fatalf("snapshot = %+v, ok=%v", s, ok)
	}
	// A second statement overwrites the record.
	q2 := cpuQuery(2)
	q2.Client = 3
	e.Submit(q2)
	clock.Run()
	s, _ = e.LastFinished(3)
	if !almost(s.ExecTime, 2) {
		t.Fatalf("snapshot not overwritten: %+v", s)
	}
}

// The snapshot monitor keeps one record per client ID, the latest
// finished statement's, and reports none for a client that never
// finished one. The workload pool hands out dense IDs from 1.
func TestLastFinishedPerClient(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	ids := []ClientID{0, 1, 2, 7, 1000}
	for i, id := range ids {
		q := cpuQuery(float64(i + 1))
		q.Client = id
		q.Class = ClassID(i)
		e.Submit(q)
		clock.Run()
	}
	for i, id := range ids {
		s, ok := e.LastFinished(id)
		if !ok || s.Client != id || s.Class != ClassID(i) || !almost(s.ExecTime, float64(i+1)) {
			t.Errorf("LastFinished(%d) = %+v, %v", id, s, ok)
		}
	}
	for _, id := range []ClientID{3, 999, 1001} {
		if s, ok := e.LastFinished(id); ok {
			t.Errorf("LastFinished(%d) = %+v for a client that finished nothing", id, s)
		}
	}
}

// A client ID outside [0, snapDenseLimit) gets no snapshot record, and
// finishing a statement under one neither grows the table nor touches
// the records of in-range clients.
func TestLastFinishedOutsideDenseRange(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	in := cpuQuery(2)
	in.Client = 4
	e.Submit(in)
	clock.Run()
	before := len(e.snaps)
	for _, id := range []ClientID{-1, snapDenseLimit, snapDenseLimit + 1} {
		q := cpuQuery(1)
		q.Client = id
		e.Submit(q)
		clock.Run()
		if s, ok := e.LastFinished(id); ok {
			t.Errorf("LastFinished(%d) = %+v, want no record", id, s)
		}
	}
	if len(e.snaps) != before {
		t.Errorf("snapshot table grew from %d to %d rows", before, len(e.snaps))
	}
	if s, ok := e.LastFinished(4); !ok || !almost(s.ExecTime, 2) {
		t.Errorf("LastFinished(4) = %+v, %v after far clients finished", s, ok)
	}
}

func TestActiveCostByClass(t *testing.T) {
	e, _ := newTestEngine(10, 10)
	for _, spec := range []struct {
		class ClassID
		cost  float64
	}{{1, 100}, {1, 50}, {2, 70}} {
		q := cpuQuery(100)
		q.Class = spec.class
		q.Cost = spec.cost
		e.Submit(q)
	}
	m := map[ClassID]float64{}
	for _, q := range e.ActiveQueries() {
		m[q.Class] += q.Cost
	}
	if m[1] != 150 || m[2] != 70 {
		t.Fatalf("active cost by class = %v", m)
	}
	if e.Active() != 3 {
		t.Fatalf("Active = %d", e.Active())
	}
}

func TestUtilization(t *testing.T) {
	e, _ := newTestEngine(2, 4)
	e.Submit(&Query{Demand: Demand{Work: 10, CPURate: 1, IORate: 2}})
	cpu, io := e.Utilization()
	if !almost(cpu, 0.5) || !almost(io, 0.5) {
		t.Fatalf("utilization = %v/%v, want 0.5/0.5", cpu, io)
	}
}

func TestStatsCounters(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.Submit(cpuQuery(3))
	e.Submit(ioQuery(2))
	clock.Run()
	st := e.Stats()
	if st.Submitted != 2 || st.Started != 2 || st.Completed != 2 {
		t.Fatalf("counters = %+v", st)
	}
	if !almost(st.CPUSecondsUsed, 3) || !almost(st.IOSecondsUsed, 2) {
		t.Fatalf("resource use = %v cpu / %v io", st.CPUSecondsUsed, st.IOSecondsUsed)
	}
}

func TestInvalidDemandPanics(t *testing.T) {
	cases := []Demand{
		{Work: 0, CPURate: 1},
		{Work: -1, CPURate: 1},
		{Work: 1, CPURate: -1},
		{Work: 1},
		{Work: math.NaN(), CPURate: 1},
	}
	for _, d := range cases {
		d := d
		func() {
			e, _ := newTestEngine(1, 1)
			defer func() {
				if recover() == nil {
					t.Fatalf("demand %+v did not panic", d)
				}
			}()
			e.Submit(&Query{Demand: d})
		}()
	}
}

func TestDoubleSubmitPanics(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(1)
	e.Submit(q)
	clock.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("re-submit of done query did not panic")
		}
	}()
	e.Submit(q)
}

func TestStartExecutingQueryPanics(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	q := cpuQuery(1)
	e.Submit(q)
	defer func() {
		if recover() == nil {
			t.Fatal("Start on executing query did not panic")
		}
	}()
	e.Start(q)
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{CPUCapacity: 0, IOCapacity: 1},
		{CPUCapacity: 1, IOCapacity: 0},
		{CPUCapacity: 1, IOCapacity: 1, ContentionAlpha: -1},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, simclock.New())
		}()
	}
}

func TestDemandAccessors(t *testing.T) {
	d := Demand{Work: 10, CPURate: 0.5, IORate: 2}
	if !almost(d.CPUSeconds(), 5) || !almost(d.IOSeconds(), 20) {
		t.Fatalf("demand seconds = %v/%v", d.CPUSeconds(), d.IOSeconds())
	}
}

// TestWorkConservationProperty submits random query mixes and checks the
// engine never delivers more station-seconds than capacity allows, and
// that every query eventually completes having consumed exactly its
// demand.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := seed
		next := func() float64 {
			r = r*1664525 + 1013904223
			return float64(r%1000)/1000.0 + 0.001
		}
		clock := simclock.New()
		cpuCap := 1 + 3*next()
		ioCap := 1 + 3*next()
		e := New(Config{CPUCapacity: cpuCap, IOCapacity: ioCap, ContentionAlpha: next() * 0.05}, clock)
		n := int(next()*20) + 2
		var wantCPU, wantIO float64
		for i := 0; i < n; i++ {
			d := Demand{Work: next() * 20, CPURate: next() * 2, IORate: next() * 2}
			if d.CPURate == 0 && d.IORate == 0 {
				d.CPURate = 0.5
			}
			wantCPU += d.CPUSeconds()
			wantIO += d.IOSeconds()
			at := next() * 30
			clock.At(at, func() { e.Submit(&Query{Demand: d}) })
		}
		clock.Run()
		st := e.Stats()
		if st.Completed != uint64(n) {
			return false
		}
		if !almost(st.CPUSecondsUsed, wantCPU) || !almost(st.IOSecondsUsed, wantIO) {
			return false
		}
		// Station capacity bound: used <= capacity x busy time (+ eps).
		if st.CPUSecondsUsed > cpuCap*st.BusyTime*(1+1e-9)+1e-6 {
			return false
		}
		if st.IOSecondsUsed > ioCap*st.BusyTime*(1+1e-9)+1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
