// SLO accounting primitive: a fixed-size sliding window of goal
// outcomes. The Query Scheduler feeds it one observation per control
// tick and reads back the window's miss fraction as an error-budget
// burn rate; the decision audit log and the qs_slo_* gauges both render
// from it. Deterministic and allocation-free after construction, like
// every instrument in this package.
package obs

import "fmt"

// SLOWindow tracks the most recent goal-attainment outcomes in a ring
// of fixed capacity. The zero value is not usable; construct with
// NewSLOWindow.
type SLOWindow struct {
	bits   []bool // ring of outcomes, true = goal met
	next   int    // ring write position
	n      int    // observations held, <= len(bits)
	misses int    // failed outcomes currently inside the window
}

// NewSLOWindow returns a window holding the last size outcomes.
func NewSLOWindow(size int) *SLOWindow {
	if size <= 0 {
		panic(fmt.Sprintf("obs: SLO window size %d must be positive", size))
	}
	return &SLOWindow{bits: make([]bool, size)}
}

// Observe records one outcome, evicting the oldest once full.
func (w *SLOWindow) Observe(met bool) {
	if w.n == len(w.bits) {
		if !w.bits[w.next] {
			w.misses--
		}
	} else {
		w.n++
	}
	w.bits[w.next] = met
	if !met {
		w.misses++
	}
	w.next = (w.next + 1) % len(w.bits)
}

// Len returns how many outcomes the window currently holds.
func (w *SLOWindow) Len() int { return w.n }

// MissFraction returns the fraction of held outcomes that missed the
// goal; an empty window reports 0.
func (w *SLOWindow) MissFraction() float64 {
	if w.n == 0 {
		return 0
	}
	return float64(w.misses) / float64(w.n)
}

// BurnRate divides the window's miss fraction by the allowed miss
// budget (a fraction in (0, 1]): 1.0 means the class is missing exactly
// at budget, above 1 it is burning error budget faster than allowed.
func (w *SLOWindow) BurnRate(budget float64) float64 {
	if budget <= 0 {
		panic(fmt.Sprintf("obs: SLO budget %v must be positive", budget))
	}
	return w.MissFraction() / budget
}
