package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero-value summary not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d", s.Count())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almost(s.Variance(), 32.0/7, 1e-9) {
		t.Fatalf("Variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if !almost(s.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %v, want 40", s.Sum())
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Add(5)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear summary")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {1, 50}, {0.5, 35}, {0.25, 20}, {0.75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("Percentile(empty) != 0")
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{10, 20}, 0.5); !almost(got, 15, 1e-9) {
		t.Fatalf("interpolated median = %v, want 15", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatalf("fresh EWMA value = %v, want 0", e.Value())
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first value = %v, want 10", e.Value())
	}
	e.Add(20)
	if !almost(e.Value(), 15, 1e-12) {
		t.Fatalf("after second add = %v, want 15", e.Value())
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.1} {
		a := a
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	fit, ok := LinearFit(xs, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	if !almost(fit.Slope, 2, 1e-9) || !almost(fit.Intercept, 3, 1e-9) {
		t.Fatalf("fit = %+v, want slope 2 intercept 3", fit)
	}
	if !almost(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearFitRecoversNoisySlope(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, -0.25*x+100+rnd.NormFloat64()*3)
	}
	fit, ok := LinearFit(xs, ys)
	if !ok {
		t.Fatal("fit failed")
	}
	if !almost(fit.Slope, -0.25, 0.01) {
		t.Fatalf("slope = %v, want ~-0.25", fit.Slope)
	}
	if fit.R2 < 0.9 {
		t.Fatalf("R2 = %v, want > 0.9", fit.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, ok := LinearFit([]float64{1}, []float64{2}); ok {
		t.Fatal("single point fit reported ok")
	}
	if _, ok := LinearFit([]float64{3, 3, 3}, []float64{1, 2, 3}); ok {
		t.Fatal("constant-x fit reported ok")
	}
}

func TestLinearFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	LinearFit([]float64{1}, []float64{1, 2})
}

func TestSlidingRegressionWindowEviction(t *testing.T) {
	r := NewSlidingRegression(3)
	// Old steep segment followed by a flat segment; after eviction only
	// the flat one should remain.
	r.Add(0, 0)
	r.Add(1, 100)
	r.Add(10, 5)
	r.Add(11, 5)
	r.Add(12, 5)
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	fit, ok := r.Fit()
	if !ok {
		t.Fatal("fit failed")
	}
	if !almost(fit.Slope, 0, 1e-9) {
		t.Fatalf("slope = %v, want 0 after eviction", fit.Slope)
	}
}

func TestSlidingRegressionReset(t *testing.T) {
	r := NewSlidingRegression(4)
	r.Add(1, 1)
	r.Add(2, 2)
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, ok := r.Fit(); ok {
		t.Fatal("fit after reset reported ok")
	}
}

func TestSlidingRegressionTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window 1 did not panic")
		}
	}()
	NewSlidingRegression(1)
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("Clamp wrong")
	}
}

// Property: Summary mean always lies within [Min, Max].
func TestSummaryMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes where intermediate arithmetic cannot
			// overflow; the invariant is about ordering, not range.
			v = math.Mod(v, 1e9)
			s.Add(v)
			n++
		}
		if n == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rnd.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rnd.Float64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotone at p=%v", p)
			}
			prev = v
		}
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1.1, 1e-3, false},
		{1e9, 1e9 * (1 + 1e-10), 1e-9, true}, // relative scaling kicks in
		{1e9, 1e9 + 1, 1e-12, false},
		{0, 1e-12, 1e-9, true}, // absolute comparison near zero
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.Inf(1), 1, 1e-9, false},
		{math.NaN(), math.NaN(), 1e-9, false}, // NaN equals nothing
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
