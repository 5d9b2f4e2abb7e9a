package engine

import (
	"testing"
)

func classQuery(class ClassID, work float64) *Query {
	return &Query{Class: class, Demand: Demand{Work: work, CPURate: 1}}
}

func TestWeightedSharingFavorsHeavyClass(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.SetClassWeights(map[ClassID]float64{1: 3, 2: 1})
	a := classQuery(1, 10)
	b := classQuery(2, 10)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	// Class 1 gets 3/4 of the CPU: a finishes in 10/(3/4) = 13.33s;
	// b runs at 1/4 until then (3.33 done), then alone: 20s total.
	if !almost(a.DoneTime, 40.0/3) {
		t.Fatalf("a done at %v, want 13.33", a.DoneTime)
	}
	if !almost(b.DoneTime, 20) {
		t.Fatalf("b done at %v, want 20", b.DoneTime)
	}
}

func TestEqualWeightsMatchPlainSharing(t *testing.T) {
	run := func(weighted bool) (float64, float64) {
		e, clock := newTestEngine(1, 1)
		if weighted {
			e.SetClassWeights(map[ClassID]float64{1: 2, 2: 2})
		}
		a := classQuery(1, 10)
		b := classQuery(2, 10)
		e.Submit(a)
		e.Submit(b)
		clock.Run()
		return a.DoneTime, b.DoneTime
	}
	a1, b1 := run(false)
	a2, b2 := run(true)
	if !almost(a1, a2) || !almost(b1, b2) {
		t.Fatalf("equal weights diverge from plain sharing: %v/%v vs %v/%v", a1, b1, a2, b2)
	}
}

func TestWeightedSharingIsWorkConserving(t *testing.T) {
	e, clock := newTestEngine(2, 1)
	// Class 1 has weight 9 but only demands 0.5 CPU; the unused share
	// must flow to class 2 instead of idling.
	e.SetClassWeights(map[ClassID]float64{1: 9, 2: 1})
	a := &Query{Class: 1, Demand: Demand{Work: 10, CPURate: 0.5}}
	b := &Query{Class: 2, Demand: Demand{Work: 10, CPURate: 2}}
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	// a is unconstrained (0.5 < its 1.8 share): finishes at 10.
	if !almost(a.DoneTime, 10) {
		t.Fatalf("a done at %v, want 10", a.DoneTime)
	}
	// b gets the remaining 1.5 of 2 CPUs: rate 0.75 for 10s of work,
	// then full speed after a leaves: 10*... work done by t=10 is 7.5,
	// remaining 2.5 at rate 1 -> 12.5s total.
	if !almost(b.DoneTime, 12.5) {
		t.Fatalf("b done at %v, want 12.5", b.DoneTime)
	}
}

func TestWeightsOnlyMatterUnderContention(t *testing.T) {
	e, clock := newTestEngine(4, 4)
	e.SetClassWeights(map[ClassID]float64{1: 100, 2: 1})
	a := classQuery(1, 5)
	b := classQuery(2, 5)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	if !almost(a.ExecutionTime(), 5) || !almost(b.ExecutionTime(), 5) {
		t.Fatalf("weights throttled an uncontended station: %v/%v",
			a.ExecutionTime(), b.ExecutionTime())
	}
}

func TestUnlistedClassDefaultsToWeightOne(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.SetClassWeights(map[ClassID]float64{1: 1}) // class 2 unlisted
	a := classQuery(1, 10)
	b := classQuery(2, 10)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	if !almost(a.DoneTime, 20) || !almost(b.DoneTime, 20) {
		t.Fatalf("unlisted class not at weight 1: %v/%v", a.DoneTime, b.DoneTime)
	}
	if e.ClassWeight(2) != 1 {
		t.Fatalf("ClassWeight(2) = %v", e.ClassWeight(2))
	}
}

// ClassWeight reads 1 for every class until weights are set, then the
// listed weight or 1 for an unlisted class, whatever its ID; clearing
// the weights reads 1 again, and a new table replaces the old one whole.
func TestClassWeightTable(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	probe := []ClassID{0, 1, 2, 3, 5, 6, 1023, 1 << 20}
	check := func(stage string, want map[ClassID]float64) {
		t.Helper()
		for _, c := range probe {
			w, ok := want[c]
			if !ok {
				w = 1
			}
			if got := e.ClassWeight(c); got != w {
				t.Errorf("%s: ClassWeight(%d) = %v, want %v", stage, c, got, w)
			}
		}
	}
	check("unset", nil)
	e.SetClassWeights(map[ClassID]float64{2: 3, 5: 0.5})
	check("set", map[ClassID]float64{2: 3, 5: 0.5})
	e.SetClassWeights(map[ClassID]float64{1: 4})
	check("replaced", map[ClassID]float64{1: 4})
	e.SetClassWeights(nil)
	check("cleared", nil)
}

func TestNegativeClassWeightPanics(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a weight for class -1 did not panic")
		}
	}()
	e.SetClassWeights(map[ClassID]float64{-1: 2})
}

func TestSetWeightsMidRunReallocates(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	a := classQuery(1, 10)
	b := classQuery(2, 10)
	e.Submit(a)
	e.Submit(b)
	// Halfway through, triple class 1's share.
	clock.At(10, func() { e.SetClassWeights(map[ClassID]float64{1: 3}) })
	clock.Run()
	// First 10s: 5 work each. Then a at 3/4: 5/(0.75) = 6.67 more
	// -> a done at 16.67; b: 1.67 more done by then, 3.33 left alone
	// -> 20s.
	if !almost(a.DoneTime, 50.0/3) {
		t.Fatalf("a done at %v, want 16.67 after reweighting", a.DoneTime)
	}
	if !almost(b.DoneTime, 20) {
		t.Fatalf("b done at %v, want 20", b.DoneTime)
	}
}

func TestClearWeightsRestoresPlainSharing(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.SetClassWeights(map[ClassID]float64{1: 8})
	e.SetClassWeights(nil)
	a := classQuery(1, 10)
	b := classQuery(2, 10)
	e.Submit(a)
	e.Submit(b)
	clock.Run()
	if !almost(a.DoneTime, 20) || !almost(b.DoneTime, 20) {
		t.Fatalf("nil weights did not restore fair sharing: %v/%v", a.DoneTime, b.DoneTime)
	}
}

func TestInvalidWeightPanics(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	for _, w := range []float64{0, -1} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("weight %v did not panic", w)
				}
			}()
			e.SetClassWeights(map[ClassID]float64{1: w})
		}()
	}
}

func TestThreeClassWeightedSplit(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	e.SetClassWeights(map[ClassID]float64{1: 2, 2: 1, 3: 1})
	a := classQuery(1, 10)
	b := classQuery(2, 10)
	c := classQuery(3, 10)
	e.Submit(a)
	e.Submit(b)
	e.Submit(c)
	clock.RunUntil(10)
	// Shares 1/2, 1/4, 1/4 -> remaining work 5, 7.5, 7.5 at t=10.
	// Verify via completion ordering: a first, then b and c together.
	clock.Run()
	if !(a.DoneTime < b.DoneTime && almost(b.DoneTime, c.DoneTime)) {
		t.Fatalf("completion times %v/%v/%v violate weighted ordering",
			a.DoneTime, b.DoneTime, c.DoneTime)
	}
}

func TestWeightedConservation(t *testing.T) {
	e, clock := newTestEngine(2, 3)
	e.SetClassWeights(map[ClassID]float64{1: 5, 2: 1})
	var want float64
	for i := 0; i < 6; i++ {
		q := &Query{Class: ClassID(1 + i%2), Demand: Demand{Work: 5, CPURate: 1, IORate: 0.5}}
		want += q.Demand.CPUSeconds()
		e.Submit(q)
	}
	clock.Run()
	st := e.Stats()
	if !almost(st.CPUSecondsUsed, want) {
		t.Fatalf("CPU used %v, want %v", st.CPUSecondsUsed, want)
	}
	if st.CPUSecondsUsed > e.Config().CPUCapacity*st.BusyTime+1e-6 {
		t.Fatal("capacity bound violated under weights")
	}
}
