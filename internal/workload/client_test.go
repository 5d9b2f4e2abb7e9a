package workload

import (
	"fmt"
	"math"
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
	if ids := pool.ActiveClients(class.ID); !slices.Equal(ids, []engine.ClientID{1, 2}) {
		t.Fatalf("ActiveClients = %v, want [1 2]", ids)
	}
	pool.SetActive(class.ID, 4) // all four clients exist
	if n := pool.ActiveCount(class.ID); n != 4 {
		t.Fatalf("ActiveCount = %d, want 4", n)
	}
}

// A snapshot poller reusing its buffer gets the same IDs ActiveClients
// returns and allocates nothing once the buffer has grown.
func TestAppendActiveClientsReusesBuffer(t *testing.T) {
	pool, _, _, class := newPoolRig(t)
	pool.SetActive(class.ID, 3)
	buf := pool.AppendActiveClients(nil, class.ID)
	if want := pool.ActiveClients(class.ID); !slices.Equal(buf, want) || len(buf) != 3 {
		t.Fatalf("AppendActiveClients = %v, ActiveClients = %v", buf, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = pool.AppendActiveClients(buf[:0], class.ID)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per reused poll, want 0", allocs)
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
		Clients: []engine.ClassMap[int]{
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

// refClient and refPool are a reference copy of the pool as it was
// before parked clients became cursors: every client is built up front
// with its own Split() stream, and a window move walks the class's whole
// client list in offset order.
type refClient struct {
	id       engine.ClientID
	class    *Class
	set      *Set
	src      *rng.Source
	active   bool
	inFlight bool
}

type refPool struct {
	route   Submitter
	clients map[engine.ClientID]*refClient
	byClass map[engine.ClassID][]*refClient
	nextID  engine.ClientID
	// reactivatedInFlight counts activations of a client whose previous
	// query had not completed yet.
	reactivatedInFlight int
}

func (p *refPool) addClients(class *Class, set *Set, n int, src *rng.Source) {
	for i := 0; i < n; i++ {
		p.nextID++
		c := &refClient{id: p.nextID, class: class, set: set, src: src.Split()}
		p.clients[c.id] = c
		p.byClass[class.ID] = append(p.byClass[class.ID], c)
	}
}

func (p *refPool) setActiveWindow(class engine.ClassID, lo, hi int) {
	for i, c := range p.byClass[class] {
		want := i >= lo && i < hi
		if want == c.active {
			continue
		}
		c.active = want
		if want && c.inFlight {
			p.reactivatedInFlight++
		}
		if want && !c.inFlight {
			p.submitNext(c)
		}
	}
}

func (p *refPool) submitNext(c *refClient) {
	q := p.route.AcquireQuery()
	q.Client = c.id
	q.Class = c.class.ID
	q.Template, q.Cost, q.Demand = c.set.Generate(c.src)
	c.inFlight = true
	p.route.Submit(q)
}

func (p *refPool) onDone(q *engine.Query) {
	c := p.clients[q.Client]
	c.inFlight = false
	if c.active {
		p.submitNext(c)
	}
}

func (p *refPool) activeClients(class engine.ClassID) []engine.ClientID {
	var ids []engine.ClientID
	for _, c := range p.byClass[class] {
		if c.active {
			ids = append(ids, c.id)
		}
	}
	return ids
}

// submission is what a pool hands its submitter, costs compared by bits.
type submission struct {
	client   engine.ClientID
	template string
	cost     uint64
}

// recorder is a Submitter that logs every submission and holds the
// queries in flight until the test completes them.
type recorder struct {
	log      []submission
	inFlight []*engine.Query
}

func (r *recorder) AcquireQuery() *engine.Query { return new(engine.Query) }

func (r *recorder) Submit(q *engine.Query) {
	r.log = append(r.log, submission{q.Client, q.Template, math.Float64bits(q.Cost)})
	r.inFlight = append(r.inFlight, q)
}

// complete removes and returns the i-th query in flight.
func (r *recorder) complete(i int) *engine.Query {
	q := r.inFlight[i]
	r.inFlight = slices.Delete(r.inFlight, i, i+1)
	return q
}

// The pool submits exactly what the eager reference submits, in the same
// order, and reports the same active clients, over randomized scripts of
// window moves (SetActive and SetActiveWindow, offset and empty windows)
// and completions in arbitrary order — including a client re-activated
// while its previous query is still in flight.
func TestPoolMatchesReference(t *testing.T) {
	m := optimizer.DefaultModel()
	oltp := NewSet(optimizer.New(m, TPCCCatalog()), TPCCTemplates())
	olap := NewSet(optimizer.New(m, TPCHCatalog()), TPCHTemplates())
	classes := PaperClasses()
	reactivated := 0
	for seed := uint64(1); seed <= 200; seed++ {
		script := rng.New(seed)
		got, want := &recorder{}, &recorder{}
		pool := NewRoutedPool(got, []*engine.Engine{engine.New(engine.DefaultConfig(), simclock.New())})
		ref := &refPool{
			route:   want,
			clients: make(map[engine.ClientID]*refClient),
			byClass: make(map[engine.ClassID][]*refClient),
		}
		size := make(map[engine.ClassID]int)
		src, refSrc := rng.New(seed), rng.New(seed)
		for _, c := range classes {
			set := olap
			if c.Kind == OLTP {
				set = oltp
			}
			size[c.ID] = script.Intn(12)
			pool.AddClients(c, set, size[c.ID], src)
			ref.addClients(c, set, size[c.ID], refSrc)
		}
		for step := 0; step < 60; step++ {
			cls := classes[script.Intn(len(classes))].ID
			var op string
			switch k := script.Intn(10); {
			case k < 2:
				n := script.Intn(size[cls] + 1)
				op = fmt.Sprintf("SetActive(%d, %d)", cls, n)
				pool.SetActive(cls, n)
				ref.setActiveWindow(cls, 0, n)
			case k < 4:
				lo := script.Intn(size[cls] + 1)
				hi := lo + script.Intn(size[cls]-lo+1)
				op = fmt.Sprintf("SetActiveWindow(%d, %d, %d)", cls, lo, hi)
				pool.SetActiveWindow(cls, lo, hi)
				ref.setActiveWindow(cls, lo, hi)
			default:
				if len(got.inFlight) == 0 {
					continue
				}
				i := script.Intn(len(got.inFlight))
				op = fmt.Sprintf("complete #%d", i)
				pool.onDone(got.complete(i))
				ref.onDone(want.complete(i))
			}
			if !slices.Equal(got.log, want.log) {
				t.Fatalf("seed %d step %d %s: submissions\n got %v\nwant %v", seed, step, op, got.log, want.log)
			}
			for _, c := range classes {
				if g, w := pool.ActiveClients(c.ID), ref.activeClients(c.ID); !slices.Equal(g, w) {
					t.Fatalf("seed %d step %d %s: class %d active %v, want %v", seed, step, op, c.ID, g, w)
				}
			}
		}
		reactivated += ref.reactivatedInFlight
	}
	if reactivated == 0 {
		t.Fatal("no script re-activated a client with a query in flight")
	}
}

// Completions the pool did not issue — client ID 0, a negative ID, an
// ID past the last one handed out, or a parked client's ID — are
// ignored: nothing is submitted and no client changes state.
func TestPoolIgnoresForeignClientIDs(t *testing.T) {
	rec := &recorder{}
	pool := NewRoutedPool(rec, []*engine.Engine{engine.New(engine.DefaultConfig(), simclock.New())})
	class := &Class{ID: 3, Name: "oltp", Kind: OLTP, Goal: Goal{AvgResponseTime, 1}, Importance: 1}
	pool.AddClients(class, fastSet(t), 4, rng.New(1)) // IDs 1..4
	pool.SetActive(class.ID, 2)                       // 1 and 2 submit; 3 and 4 stay parked
	if len(rec.log) != 2 {
		t.Fatalf("activation submitted %d queries, want 2", len(rec.log))
	}
	for _, id := range []engine.ClientID{0, -1, -1 << 40, 3, 4, 5, 6, 1 << 40} {
		pool.onDone(&engine.Query{Client: id, Class: class.ID, State: engine.StateDone})
	}
	if len(rec.log) != 2 {
		t.Fatalf("foreign completions submitted %v", rec.log[2:])
	}
	if got := pool.ActiveClients(class.ID); !slices.Equal(got, []engine.ClientID{1, 2}) {
		t.Fatalf("active clients after foreign completions = %v, want [1 2]", got)
	}
	pool.onDone(rec.complete(0))
	if len(rec.log) != 3 || rec.log[2].client != 1 {
		t.Fatalf("client 1's own completion did not resubmit: %v", rec.log)
	}
}
