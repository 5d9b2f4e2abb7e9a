package backend

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// scratchLoad is Load recomputed from the executing queries, summed in
// active-slice order.
func scratchLoad(b *Instance) float64 {
	var cpu, io float64
	for _, q := range b.Eng.ActiveQueries() {
		cpu += q.Demand.CPURate
		io += q.Demand.IORate
	}
	cfg := b.Eng.Config()
	return max(cpu/cfg.CPUCapacity, io/cfg.IOCapacity)
}

// TestLoadMatchesScratchSum checks Load bit for bit against a sum over
// the active set after every start, completion, abort and evacuation,
// including reads from inside completion listeners that start work.
func TestLoadMatchesScratchSum(t *testing.T) {
	clock := simclock.New()
	b := New(1, Spec{Name: "b1", CPUCapacity: 2, IOCapacity: 6}, clock)
	src := rng.New(5)
	check := func(when string) {
		t.Helper()
		if got, want := b.Load(), scratchLoad(b); got != want {
			t.Fatalf("%s at t=%v: Load = %v, scratch sum = %v", when, clock.Now(), got, want)
		}
	}
	demand := func() engine.Demand {
		return engine.Demand{Work: src.Range(0.01, 5), CPURate: src.Range(0, 2), IORate: src.Range(0.01, 3)}
	}
	submit := func() {
		b.Eng.Submit(&engine.Query{Demand: demand()})
		check("start")
	}
	b.Eng.OnDone(func(q *engine.Query) {
		check("completion")
		if q.ID%2 == 0 && q.State == engine.StateDone {
			submit()
		}
	})
	check("idle")
	for i := 0; i < 200; i++ {
		at := src.Range(0, 100)
		switch src.Intn(8) {
		case 0:
			pick := src.Intn(1 << 20)
			clock.At(at, func() {
				if qs := b.Eng.ActiveQueries(); len(qs) > 0 {
					b.Eng.Abort(qs[pick%len(qs)])
					check("abort")
				}
			})
		case 1:
			clock.At(at, func() {
				for _, q := range b.Evacuate() {
					check("evacuate")
					b.Eng.Submit(q)
				}
				check("resubmit")
			})
		default:
			clock.At(at, submit)
		}
	}
	for clock.Step() {
		check("step")
	}
	if b.Eng.Stats().Aborted == 0 || b.Eng.Stats().Evacuated == 0 {
		t.Fatalf("script exercised no abort or evacuation: %+v", b.Eng.Stats())
	}
}

func TestAffinity(t *testing.T) {
	b := New(2, Spec{Name: "b2", Affinity: map[engine.ClassID]float64{1: 2.5, 3: 0.5}}, simclock.New())
	for class, want := range map[engine.ClassID]float64{1: 2.5, 2: 1, 3: 0.5} {
		if got := b.Affinity(class); got != want {
			t.Errorf("Affinity(%d) = %v, want %v", class, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive affinity did not panic")
		}
	}()
	New(3, Spec{Name: "bad", Affinity: map[engine.ClassID]float64{1: 0}}, simclock.New())
}

// TestQueueDepth follows the admission gate: zero without a patroller,
// then the held count as OLAP queries arrive, are released up to the
// system cost limit, and drain as the running ones finish.
func TestQueueDepth(t *testing.T) {
	clock := simclock.New()
	b := New(1, Spec{Name: "b1"}, clock)
	if got := b.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth without a patroller = %d, want 0", got)
	}
	b.AttachController(Control{Mode: NoControl, Classes: workload.PaperClasses(), Limit: 100})
	for i := 0; i < 3; i++ {
		b.Eng.Submit(&engine.Query{Class: 1, Cost: 80, Demand: engine.Demand{Work: 1, IORate: 1}})
	}
	if got := b.QueueDepth(); got != 3 {
		t.Fatalf("QueueDepth before the release event = %d, want 3", got)
	}
	clock.RunUntil(0.5) // releases run in an event after the submits
	if got := b.QueueDepth(); got != 2 {
		t.Fatalf("QueueDepth with one running under the limit = %d, want 2", got)
	}
	clock.RunUntil(1.5)
	if got := b.QueueDepth(); got != 1 {
		t.Fatalf("QueueDepth after the first finished = %d, want 1", got)
	}
	clock.Run()
	if got := b.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth after the run = %d, want 0", got)
	}
}

// Classes the spec does not list — zero, negative, between or past the
// listed IDs — read the neutral affinity 1.
func TestAffinityUnlistedClassesAreNeutral(t *testing.T) {
	b := New(1, Spec{Name: "b1", Affinity: map[engine.ClassID]float64{1: 2.5, 3: 0.5}}, simclock.New())
	for _, class := range []engine.ClassID{0, 2, 4, 1 << 20, -1, -1 << 40} {
		if got := b.Affinity(class); got != 1 {
			t.Errorf("unlisted class %d: Affinity = %v, want 1", class, got)
		}
	}
	plain := New(2, Spec{Name: "b2"}, simclock.New())
	if got := plain.Affinity(1); got != 1 {
		t.Errorf("spec without affinities: Affinity(1) = %v, want 1", got)
	}
}
