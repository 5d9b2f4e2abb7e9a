// Package stats provides the small statistical toolkit the controller and
// the experiment harness need: online summaries, percentiles, exponential
// smoothing, and least-squares regression (the paper fits the
// OLTP performance-model slope "s" with linear regression).
package stats

import (
	"math"
	"sort"
)

// ApproxEqual reports whether a and b agree to within tol, scaled by the
// larger magnitude (an absolute comparison below magnitude 1). It is the
// repository's approved epsilon helper for floating-point equality: the
// qlint floateq check forbids ==/!= on computed floats everywhere else,
// because exact equality flips with evaluation order. The one exact
// comparison below handles infinities and is allowed by name in the lint
// configuration (see internal/lint.DefaultConfig).
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true // covers equal infinities, which produce a NaN diff
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return false // unequal non-finite values are never "approximately" equal
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Summary accumulates count, mean, and variance online (Welford's
// algorithm) along with min and max. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Variance returns the sample variance (n-1 denominator), or 0 for fewer
// than two observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Reset discards all observations.
func (s *Summary) Reset() { *s = Summary{} }

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. It returns 0 for an empty slice
// and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		return minOf(xs)
	}
	if p >= 1 {
		return maxOf(xs)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// EWMA is an exponentially weighted moving average. The zero value is not
// usable; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weights recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Add folds x into the average. The first observation initializes it.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Regression is the result of an ordinary least-squares fit y = a + b·x.
type Regression struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int     // number of points fit
}

// LinearFit fits y = a + b·x by ordinary least squares. ok is false when
// fewer than two points are supplied or all x values coincide (the slope is
// then undefined).
func LinearFit(xs, ys []float64) (r Regression, ok bool) {
	if len(xs) != len(ys) {
		panic("stats: LinearFit length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return Regression{N: n}, false
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{N: n}, false
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Regression{Intercept: a, Slope: b, R2: r2, N: n}, true
}

// SlidingRegression keeps the most recent Window (x, y) observations and
// fits them on demand. It is how the controller estimates the OLTP model
// slope from recent control intervals.
type SlidingRegression struct {
	Window int
	xs, ys []float64
}

// NewSlidingRegression returns a SlidingRegression holding up to window
// points. window must be at least 2.
func NewSlidingRegression(window int) *SlidingRegression {
	if window < 2 {
		panic("stats: sliding regression window must be >= 2")
	}
	return &SlidingRegression{Window: window}
}

// Add appends an observation, evicting the oldest when full.
func (s *SlidingRegression) Add(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
	if len(s.xs) > s.Window {
		s.xs = s.xs[1:]
		s.ys = s.ys[1:]
	}
}

// Len returns the number of stored observations.
func (s *SlidingRegression) Len() int { return len(s.xs) }

// Fit runs least squares over the stored window.
func (s *SlidingRegression) Fit() (Regression, bool) {
	return LinearFit(s.xs, s.ys)
}

// Reset discards all stored observations.
func (s *SlidingRegression) Reset() {
	s.xs = s.xs[:0]
	s.ys = s.ys[:0]
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
