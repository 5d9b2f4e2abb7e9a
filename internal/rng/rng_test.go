package rng

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent's.
	p, c := New(7), child
	_ = p.Uint64() // consume the draw Split used
	for i := 0; i < 50; i++ {
		if p.Uint64() == c.Uint64() {
			t.Fatal("child stream mirrors parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	s := New(9)
	f := func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestRange(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		v := s.Range(3, 8)
		if v < 3 || v >= 8 {
			t.Fatalf("Range(3,8) = %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		v := s.Exp(2.5)
		if v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~2.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(19)
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormalMedian(5, 0.5)
	}
	// Median check: count below 5 should be ~half.
	below := 0
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("LogNormalMedian produced non-positive %v", v)
		}
		if v < 5 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(31)
	weights := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / float64(n)
		want := w / 10
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("weight %d chosen %v of the time, want ~%v", i, got, want)
		}
	}
}

func TestWeightedChoiceSumMatchesWeightedChoice(t *testing.T) {
	weights := []float64{0.3, 0, 2.5, 1e-9, 7}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	a, b := New(41), New(41)
	for i := 0; i < 10000; i++ {
		if got, want := a.WeightedChoiceSum(weights, total), b.WeightedChoice(weights); got != want {
			t.Fatalf("draw %d: WeightedChoiceSum = %d, WeightedChoice = %d", i, got, want)
		}
	}
}

func TestWeightedChoiceZeroWeightNeverChosen(t *testing.T) {
	s := New(37)
	weights := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		if got := s.WeightedChoice(weights); got != 1 {
			t.Fatalf("chose index %d with zero weight", got)
		}
	}
}

func TestWeightedChoiceInvalid(t *testing.T) {
	for _, weights := range [][]float64{nil, {}, {0, 0}, {-1, 2}} {
		weights := weights
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("weights %v did not panic", weights)
				}
			}()
			New(1).WeightedChoice(weights)
		}()
	}
}

// TestConcurrentSourcesAreStreamIndependent covers the lowest layer of the
// parallel-experiment isolation invariant (see internal/experiment/
// parallel.go): a Source has no hidden shared state, so same-seed
// generators driven from concurrent worker goroutines produce exactly the
// sequence a lone serial generator does. Run under `go test -race` this
// also proves separate Sources share no memory.
func TestConcurrentSourcesAreStreamIndependent(t *testing.T) {
	const seed, draws, workers = 77, 5000, 8
	reference := make([]uint64, draws)
	src := New(seed)
	for i := range reference {
		reference[i] = src.Uint64()
	}

	results := make([][]uint64, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			s := New(seed) // each worker owns its generator, same seed
			out := make([]uint64, draws)
			for i := range out {
				out[i] = s.Uint64()
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w, out := range results {
		for i := range out {
			if out[i] != reference[i] {
				t.Fatalf("worker %d diverged from the serial stream at draw %d", w, i)
			}
		}
	}
}

// TestSplitStreamsIndependent checks that Split-derived generators do not
// share state with the parent: draining the child must not perturb the
// parent's subsequent stream.
func TestSplitStreamsIndependent(t *testing.T) {
	a := New(5)
	b := New(5)
	childA := a.Split()
	childB := b.Split()
	for i := 0; i < 100; i++ {
		childA.Uint64() // drain only one child
	}
	_ = childB
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draining a Split child perturbed the parent at draw %d", i)
		}
	}
}
