package optimizer_test

import (
	"math"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The optimizer's cost estimate is drawn per query by workload.Set.Generate:
// the true cost perturbed by log-normal noise of Model.EstimateSigma, and
// the parallelism degree read from the true cost. These tests pin that
// estimate on the TPC-H set with every template's size spread set to 0,
// so each draw's true cost is its template's base cost and only the
// estimation noise varies.

func fixedSizeSet(sigma float64) (*workload.Set, map[string]int) {
	m := optimizer.DefaultModel()
	m.EstimateSigma = sigma
	templates := workload.TPCHTemplates()
	idx := map[string]int{}
	for i := range templates {
		templates[i].SizeSigma = 0
		idx[templates[i].Name] = i
	}
	return workload.NewSet(optimizer.New(m, workload.TPCHCatalog()), templates), idx
}

func TestEstimateNoiseOnlyAffectsEstimate(t *testing.T) {
	s, idx := fixedSizeSet(optimizer.DefaultModel().EstimateSigma)
	src := rng.New(5)
	diff := false
	for i := 0; i < 200; i++ {
		tmpl, est, d := s.Generate(src)
		j := idx[tmpl]
		truth := s.BaseTimerons(j)
		if want := workload.DemandFor(s.BaseCost(j), workload.ParallelismFor(truth)); d != want {
			t.Fatalf("draw %d: demand %+v, want the noise-free %+v", i, d, want)
		}
		if math.Abs(est-truth) > 1e-9*(1+truth) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("estimates never deviated from truth despite noise")
	}
}

func TestEstimateWithoutNoiseDeterministic(t *testing.T) {
	s, idx := fixedSizeSet(0)
	src := rng.New(1)
	for i := 0; i < 200; i++ {
		tmpl, est, _ := s.Generate(src)
		if truth := s.BaseTimerons(idx[tmpl]); est != truth {
			t.Fatalf("draw %d: sigma 0 estimate %v, want the true %v", i, est, truth)
		}
	}
}

func TestEstimateNoiseIsUnbiasedInMedian(t *testing.T) {
	s, idx := fixedSizeSet(optimizer.DefaultModel().EstimateSigma)
	src := rng.New(77)
	above := 0
	n := 2000
	for i := 0; i < n; i++ {
		tmpl, est, _ := s.Generate(src)
		if est > s.BaseTimerons(idx[tmpl]) {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("noise median biased: %v above truth", frac)
	}
}

func TestParallelismByCost(t *testing.T) {
	if p := workload.ParallelismFor(100); p != 1 {
		t.Fatalf("tiny query parallelism = %d, want 1", p)
	}
	if p := workload.ParallelismFor(5000); p != 2 {
		t.Fatalf("large query parallelism = %d, want 2", p)
	}
}
