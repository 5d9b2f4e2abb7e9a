package stats

import (
	"math"
	"testing"
)

func TestReservoirKeepsEverythingBelowCapacity(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 7; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 7 || r.Seen() != 7 {
		t.Fatalf("Len/Seen = %d/%d", r.Len(), r.Seen())
	}
	if got := r.Quantile(1); got != 6 {
		t.Fatalf("max = %v", got)
	}
}

func TestReservoirBoundedMemory(t *testing.T) {
	r := NewReservoir(32, 2)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 32 {
		t.Fatalf("Len = %d, want 32", r.Len())
	}
	if r.Seen() != 100000 {
		t.Fatalf("Seen = %d", r.Seen())
	}
}

func TestReservoirDeterministic(t *testing.T) {
	a, b := NewReservoir(16, 7), NewReservoir(16, 7)
	for i := 0; i < 10000; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	sa, sb := a.Samples(), b.Samples()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same-seed reservoirs diverged")
		}
	}
}

func TestReservoirQuantileAccuracy(t *testing.T) {
	// Uniform stream 0..1: the sampled quantiles must approximate the
	// true ones.
	r := NewReservoir(2048, 3)
	n := 200000
	for i := 0; i < n; i++ {
		r.Add(float64(i%1000) / 1000)
	}
	for _, q := range []float64{0.1, 0.5, 0.95} {
		if got := r.Quantile(q); math.Abs(got-q) > 0.05 {
			t.Fatalf("quantile %v = %v", q, got)
		}
	}
}

func TestReservoirSampleIsUnbiasedAcrossStream(t *testing.T) {
	// Stream of 10k items; the retained sample's mean index should be
	// near the middle, not stuck at the start or end.
	r := NewReservoir(512, 5)
	for i := 0; i < 10000; i++ {
		r.Add(float64(i))
	}
	var sum float64
	for _, v := range r.Samples() {
		sum += v
	}
	mean := sum / float64(r.Len())
	if mean < 3500 || mean > 6500 {
		t.Fatalf("sample mean index %v suggests bias", mean)
	}
}

func TestReservoirInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 did not panic")
		}
	}()
	NewReservoir(0, 1)
}

func TestReservoirSamplesIsCopy(t *testing.T) {
	r := NewReservoir(4, 1)
	r.Add(1)
	s := r.Samples()
	s[0] = 99
	if r.Samples()[0] == 99 {
		t.Fatal("Samples leaked internal state")
	}
}
