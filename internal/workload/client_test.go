package workload

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// fastSet returns a template set with a single tiny deterministic query,
// so client-loop tests have exact timing.
func fastSet(t *testing.T) *Set {
	t.Helper()
	m := optimizer.DefaultModel()
	m.EstimateSigma = 0
	opt := optimizer.New(m, TPCCCatalog())
	return NewSet(opt, []Template{{
		Name:   "tiny",
		Kind:   OLTP,
		Plan:   &optimizer.IndexLookup{Index: "w_id", Rows: 1},
		Weight: 1,
	}})
}

func newPoolRig(t *testing.T) (*Pool, *engine.Engine, *simclock.Clock, *Class) {
	t.Helper()
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
	pool := NewPool(eng)
	class := &Class{ID: 3, Name: "oltp", Kind: OLTP, Goal: Goal{AvgResponseTime, 1}, Importance: 1}
	pool.AddClients(class, fastSet(t), 4, rng.New(1))
	return pool, eng, clock, class
}

func TestClientsParkUntilActivated(t *testing.T) {
	pool, eng, clock, class := newPoolRig(t)
	clock.RunUntil(1)
	if eng.Stats().Submitted != 0 {
		t.Fatal("parked clients submitted work")
	}
	pool.SetActive(class.ID, 2)
	clock.RunUntil(2)
	if got := eng.Stats().Submitted; got == 0 {
		t.Fatal("activated clients submitted nothing")
	}
	if pool.ActiveCount(class.ID) != 2 {
		t.Fatalf("ActiveCount = %d", pool.ActiveCount(class.ID))
	}
}

func TestZeroThinkTimeResubmission(t *testing.T) {
	pool, eng, clock, class := newPoolRig(t)
	pool.SetActive(class.ID, 1)
	clock.RunUntil(10)
	st := eng.Stats()
	// One client, tiny queries, huge capacity: thousands of completions,
	// and never more than one in flight.
	if st.Completed < 1000 {
		t.Fatalf("only %d completions in 10s", st.Completed)
	}
	if st.Submitted != st.Completed && st.Submitted != st.Completed+1 {
		t.Fatalf("closed loop violated: %d submitted vs %d completed", st.Submitted, st.Completed)
	}
}

func TestDeactivationStopsResubmission(t *testing.T) {
	pool, eng, clock, class := newPoolRig(t)
	pool.SetActive(class.ID, 3)
	clock.RunUntil(1)
	before := eng.Stats().Submitted
	pool.SetActive(class.ID, 0)
	clock.RunUntil(1.001) // let in-flight queries drain
	settled := eng.Stats().Submitted
	if settled > before+3 {
		t.Fatalf("deactivated clients kept submitting: %d -> %d", before, settled)
	}
	clock.RunUntil(5)
	if eng.Stats().Submitted != settled {
		t.Fatal("submissions continued after drain")
	}
	if eng.Active() != 0 {
		t.Fatal("queries still active after deactivation drain")
	}
}

func TestReactivationResumes(t *testing.T) {
	pool, eng, clock, class := newPoolRig(t)
	pool.SetActive(class.ID, 1)
	clock.RunUntil(1)
	pool.SetActive(class.ID, 0)
	clock.RunUntil(2)
	mid := eng.Stats().Submitted
	pool.SetActive(class.ID, 1)
	clock.RunUntil(3)
	if eng.Stats().Submitted <= mid {
		t.Fatal("reactivated client did not resume")
	}
}

func TestSetActiveBoundsPanics(t *testing.T) {
	pool, _, _, class := newPoolRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("over-activation did not panic")
		}
	}()
	pool.SetActive(class.ID, 5)
}

func TestActiveClientsList(t *testing.T) {
	pool, _, _, class := newPoolRig(t)
	pool.SetActive(class.ID, 2)
	ids := pool.ActiveClients(class.ID)
	if len(ids) != 2 {
		t.Fatalf("ActiveClients = %v", ids)
	}
	all := pool.Clients(class.ID)
	if len(all) != 4 {
		t.Fatalf("Clients = %d, want 4", len(all))
	}
}

// A snapshot poller reusing its buffer gets the same IDs ActiveClients
// returns and allocates nothing once the buffer has grown, for eager and
// streaming classes alike.
func TestAppendActiveClientsReusesBuffer(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		clock := simclock.New()
		eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
		pool := NewPool(eng)
		class := &Class{ID: 3, Name: "oltp", Kind: OLTP, Goal: Goal{AvgResponseTime, 1}, Importance: 1}
		if streaming {
			pool.AddClientsStreaming(class, fastSet(t), 4, rng.New(1))
		} else {
			pool.AddClients(class, fastSet(t), 4, rng.New(1))
		}
		pool.SetActive(class.ID, 3)
		buf := pool.AppendActiveClients(nil, class.ID)
		if want := pool.ActiveClients(class.ID); !slices.Equal(buf, want) || len(buf) != 3 {
			t.Fatalf("streaming=%v: AppendActiveClients = %v, ActiveClients = %v", streaming, buf, want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf = pool.AppendActiveClients(buf[:0], class.ID)
		})
		if allocs != 0 {
			t.Fatalf("streaming=%v: %v allocs per reused poll, want 0", streaming, allocs)
		}
	}
}

func TestClientQueriesCarryClassAndCost(t *testing.T) {
	pool, eng, clock, class := newPoolRig(t)
	// Pool queries are engine-pooled and recycled after OnDone returns,
	// so the listener copies what it needs instead of keeping pointers.
	type record struct {
		class    engine.ClassID
		cost     float64
		template string
	}
	var seen []record
	eng.OnDone(func(q *engine.Query) {
		seen = append(seen, record{q.Class, q.Cost, q.Template})
	})
	pool.SetActive(class.ID, 1)
	clock.RunUntil(0.01)
	if len(seen) == 0 {
		t.Fatal("no completions")
	}
	for _, q := range seen {
		if q.class != class.ID {
			t.Fatalf("query class %d, want %d", q.class, class.ID)
		}
		if q.cost <= 0 {
			t.Fatal("query without cost estimate")
		}
		if q.template != "tiny" {
			t.Fatalf("template %q", q.template)
		}
	}
}

func TestScheduleInstall(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
	pool := NewPool(eng)
	class := &Class{ID: 1, Name: "c", Kind: OLTP, Goal: Goal{AvgResponseTime, 1}, Importance: 1}
	pool.AddClients(class, fastSet(t), 3, rng.New(1))

	sched := Schedule{
		PeriodSeconds: 10,
		Clients: []map[engine.ClassID]int{
			{1: 1}, {1: 3}, {1: 0},
		},
	}
	var periods []int
	counts := map[int]int{}
	sched.Install(clock, pool, func(p int) {
		periods = append(periods, p)
		counts[p] = pool.ActiveCount(1)
	})
	clock.RunUntil(sched.Duration())
	if len(periods) != 3 {
		t.Fatalf("periods fired %v", periods)
	}
	if counts[0] != 1 || counts[1] != 3 || counts[2] != 0 {
		t.Fatalf("client counts per period %v", counts)
	}
}

func TestScheduleHelpers(t *testing.T) {
	s := PaperSchedule()
	if s.Periods() != 18 {
		t.Fatalf("Periods = %d", s.Periods())
	}
	if s.Duration() != 18*80*60 {
		t.Fatalf("Duration = %v, want 24h", s.Duration())
	}
	if s.PeriodAt(-5) != 0 || s.PeriodAt(0) != 0 || s.PeriodAt(80*60) != 1 {
		t.Fatal("PeriodAt boundaries wrong")
	}
	if s.PeriodAt(1e9) != 17 {
		t.Fatal("PeriodAt must clamp to last period")
	}
	max := s.MaxClients()
	if max[1] != 6 || max[2] != 6 || max[3] != 25 {
		t.Fatalf("MaxClients = %v", max)
	}
}

func TestPaperScheduleMatchesPaperConstraints(t *testing.T) {
	s := PaperSchedule()
	for p, counts := range s.Clients {
		for _, cls := range []engine.ClassID{1, 2} {
			if counts[cls] < 2 || counts[cls] > 6 {
				t.Fatalf("period %d class %d count %d outside 2..6", p+1, cls, counts[cls])
			}
		}
		if counts[3] < 15 || counts[3] > 25 {
			t.Fatalf("period %d OLTP count %d outside 15..25", p+1, counts[3])
		}
	}
	// Period 18 is the paper's heaviest: (2, 6, 25).
	last := s.Clients[17]
	if last[1] != 2 || last[2] != 6 || last[3] != 25 {
		t.Fatalf("period 18 = %v, want (2,6,25)", last)
	}
	// Period 17: medium OLTP, highest OLAP intensity.
	p17 := s.Clients[16]
	if p17[3] != 20 {
		t.Fatal("period 17 OLTP must be medium (20)")
	}
	if p17[1]+p17[2] != 12 {
		t.Fatalf("period 17 OLAP clients = %d, want the maximum 12", p17[1]+p17[2])
	}
	// OLTP cycles low/medium/high.
	for p := 0; p < 18; p++ {
		want := []int{15, 20, 25}[p%3]
		if s.Clients[p][3] != want {
			t.Fatalf("period %d OLTP = %d, want %d", p+1, s.Clients[p][3], want)
		}
	}
}

func TestScheduleInstallValidation(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 1, IOCapacity: 1}, clock)
	pool := NewPool(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("empty schedule did not panic")
		}
	}()
	Schedule{PeriodSeconds: 1}.Install(clock, pool, nil)
}
