package perfmodel

import (
	"math"
	"testing"
)

// newThroughput builds the throughput model over a default linear one.
func newThroughput() *OLTPThroughput {
	return NewOLTPThroughput(NewOLTPResponse(DefaultOLTPConfig()))
}

// answersAsFallback reports whether m's Name and Predict are its
// fallback's.
func answersAsFallback(m *OLTPThroughput) bool {
	return m.Name() == m.fallback.Name() &&
		m.Predict(0.3, 5000, 10000) == m.fallback.Predict(0.3, 5000, 10000) &&
		m.Predict(0.3, 5000, 1000) == m.fallback.Predict(0.3, 5000, 1000)
}

func TestThroughputModelUnusableWithoutData(t *testing.T) {
	m := newThroughput()
	if !answersAsFallback(m) || m.Name() != LinearModel {
		t.Fatalf("empty model answers as %q, not as its linear fallback", m.Name())
	}
	// The fallback predicts with the prior slope, in float64 arithmetic.
	prior := float64(priorSlope)
	if got, want := m.Predict(0.3, 5000, 10000), 0.3+prior*5000; got != want {
		t.Fatalf("fallback prediction = %v, want %v", got, want)
	}
}

// The model answers as its fallback until its fit is usable, as itself
// while it is, and as the fallback again once a wrong-sign window
// replaces the fit. The fallback sees every sample.
func TestThroughputModelAnswersAsFallbackUntilUsable(t *testing.T) {
	m := newThroughput()
	n := 20.0
	x := func(c float64) float64 { return 40 + 0.004*c }
	for i, c := range []float64{0, 2000, 5000, 8000, 12000} {
		m.Observe(Sample{Limit: c, Value: n / x(c), Population: n})
		if fallback := i+1 < minPoints; answersAsFallback(m) != fallback {
			t.Fatalf("after %d samples: answers as fallback %v, want %v", i+1, !fallback, fallback)
		}
	}
	if m.Name() != ThroughputModel {
		t.Fatalf("usable model named %q", m.Name())
	}
	for i := 0; i < throughputWindow; i++ {
		c := 1000 + 3000*float64(i%4)
		m.Observe(Sample{Limit: c, Value: 0.1 + c*1e-5, Population: n}) // X falls with C: wrong sign
	}
	if !answersAsFallback(m) {
		t.Fatalf("after a negative-slope window the model answers as %q", m.Name())
	}
	if got := m.fallback.reg.Len(); got != DefaultOLTPConfig().Window {
		t.Fatalf("fallback window holds %d points, want a full %d", got, DefaultOLTPConfig().Window)
	}
}

func TestThroughputModelLearnsAffineCurve(t *testing.T) {
	m := newThroughput()
	// Ground truth: X(C) = 40 + 0.004·C, N = 20 clients.
	n := 20.0
	x := func(c float64) float64 { return 40 + 0.004*c }
	for _, c := range []float64{0, 2000, 5000, 8000, 12000} {
		m.Observe(Sample{Limit: c, Value: n / x(c), Population: n})
	}
	if m.Name() != ThroughputModel {
		t.Fatal("model not usable after five clean points")
	}
	// Predict at a new limit, anchored at the last observation.
	cPrev, cNew := 12000.0, 2000.0
	got := m.Predict(n/x(cPrev), cPrev, cNew)
	want := n / x(cNew)
	if math.Abs(got-want) > 0.01*want {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestThroughputModelCapturesHyperbola(t *testing.T) {
	// The point of the model: halving available throughput doubles
	// response time — a shape the linear model cannot express.
	m := newThroughput()
	n := 25.0
	x := func(c float64) float64 { return 10 + 0.002*c }
	for _, c := range []float64{2000, 6000, 10000, 14000} {
		m.Observe(Sample{Limit: c, Value: n / x(c), Population: n})
	}
	tPrev := n / x(14000) // 0.658 at X=38
	squeeze := m.Predict(tPrev, 14000, 2000)
	expand := m.Predict(tPrev, 14000, 26000)
	if squeeze/tPrev < 2 {
		t.Fatalf("squeeze should blow up hyperbolically: %v -> %v", tPrev, squeeze)
	}
	if expand >= tPrev {
		t.Fatalf("expanding the limit must help: %v -> %v", tPrev, expand)
	}
}

func TestThroughputModelRejectsNegativeSlope(t *testing.T) {
	m := newThroughput()
	for _, c := range []float64{1000, 4000, 8000, 12000} {
		m.Observe(Sample{Limit: c, Value: 0.1 + c*1e-5, Population: 20}) // X falls with C: wrong sign
	}
	if !answersAsFallback(m) {
		t.Fatal("negative-slope fit accepted")
	}
}

func TestThroughputModelFloorsPrediction(t *testing.T) {
	m := newThroughput()
	n := 20.0
	for _, c := range []float64{4000, 8000, 12000, 16000} {
		m.Observe(Sample{Limit: c, Value: n / (1 + 0.01*c), Population: n})
	}
	// Extrapolating to C=0 would give X near 1; far below, the floor
	// must cap the predicted response time at N/minThroughput.
	got := m.Predict(n/(1+0.01*16000), 16000, -1e9)
	if got > n/minThroughput+1e-9 {
		t.Fatalf("prediction %v above the floor bound", got)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatal("unbounded prediction")
	}
}

func TestThroughputModelIgnoresGarbage(t *testing.T) {
	m := newThroughput()
	m.Observe(Sample{Limit: math.NaN(), Value: 0.3, Population: 10})
	m.Observe(Sample{Limit: 1000, Value: 0, Population: 10})
	m.Observe(Sample{Limit: 1000, Value: 0.3, Population: 0})
	if m.reg.Len() != 0 {
		t.Fatalf("garbage observations stored: %d", m.reg.Len())
	}
}
