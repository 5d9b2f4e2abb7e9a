package obs

import (
	"math"
	"testing"
)

func TestSLOWindowRolls(t *testing.T) {
	w := NewSLOWindow(4)
	if w.Len() != 0 || w.MissFraction() != 0 {
		t.Fatalf("empty window: len %d miss %v", w.Len(), w.MissFraction())
	}
	w.Observe(true)
	w.Observe(false)
	w.Observe(false)
	if w.Len() != 3 || math.Abs(w.MissFraction()-2.0/3) > 1e-12 {
		t.Fatalf("len %d miss %v", w.Len(), w.MissFraction())
	}
	w.Observe(true)
	w.Observe(true) // evicts the initial true: window = F F T T
	if w.Len() != 4 || math.Abs(w.MissFraction()-0.5) > 1e-12 {
		t.Fatalf("after roll: len %d miss %v", w.Len(), w.MissFraction())
	}
	w.Observe(true)
	w.Observe(true) // evicts both misses: window = T T T T
	if w.MissFraction() != 0 {
		t.Fatalf("all-met window misses %v", w.MissFraction())
	}
	if got := w.BurnRate(0.1); got != 0 {
		t.Fatalf("burn rate %v", got)
	}
}

func TestSLOWindowBurnRate(t *testing.T) {
	w := NewSLOWindow(10)
	for i := 0; i < 8; i++ {
		w.Observe(true)
	}
	w.Observe(false)
	w.Observe(false)
	// 2 misses / 10 ticks at a 10% budget: burning at exactly 2x.
	if got := w.BurnRate(0.1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("burn rate %v, want 2", got)
	}
}
