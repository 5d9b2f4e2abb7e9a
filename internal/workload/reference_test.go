package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/rng"
)

// refInstance, refGenerate and refGenerateFrom are a reference copy of
// the generator as it was when it built a full instance per query: the
// true and estimated costs with rows and pages, the parallelism degree
// and the demand. Generate must draw the same random numbers in the same
// order and return, bit for bit, the template, estimate and demand this
// copy computes.
type refInstance struct {
	Template    string
	True        optimizer.Cost
	Est         optimizer.Cost
	Timerons    float64
	Parallelism int
	Demand      engine.Demand
}

func refGenerate(s *Set, src *rng.Source) refInstance {
	return refGenerateFrom(s, src.WeightedChoiceSum(s.weights, s.total), src)
}

func refGenerateFrom(s *Set, i int, src *rng.Source) refInstance {
	t := &s.templates[i]
	truth := s.base[i]
	if t.SizeSigma > 0 {
		f := src.LogNormalMedian(1, t.SizeSigma)
		truth.CPUSeconds *= f
		truth.IOSeconds *= f
		truth.Rows *= f
		truth.Pages *= f
	}
	est := truth
	if sigma := s.opt.Model.EstimateSigma; sigma > 0 {
		f := src.LogNormalMedian(1, sigma)
		est.CPUSeconds *= f
		est.IOSeconds *= f
		est.Rows *= f
	}
	trueTimerons := s.opt.Model.Timerons(truth)
	par := ParallelismFor(trueTimerons)
	return refInstance{
		Template:    t.Name,
		True:        truth,
		Est:         est,
		Timerons:    s.opt.Model.Timerons(est),
		Parallelism: par,
		Demand:      DemandFor(truth, par),
	}
}

// referenceSets returns the TPC-H and TPC-C sets with and without
// estimation noise, each also with every other template's size spread
// set to 0, so both log-normal draws are taken and skipped in every
// combination.
func referenceSets() map[string]*Set {
	sets := map[string]*Set{}
	for _, w := range []struct {
		name      string
		cat       func() *catalog.Catalog
		templates func() []Template
	}{
		{"tpch", TPCHCatalog, TPCHTemplates},
		{"tpcc", TPCCCatalog, TPCCTemplates},
	} {
		for _, noise := range []bool{true, false} {
			m := optimizer.DefaultModel()
			name := w.name + "/estimate-noise"
			if !noise {
				m.EstimateSigma = 0
				name = w.name + "/exact-estimate"
			}
			sets[name] = NewSet(optimizer.New(m, w.cat()), w.templates())
			fixed := w.templates()
			for i := range fixed {
				if i%2 == 0 {
					fixed[i].SizeSigma = 0
				}
			}
			sets[name+"/half-fixed-size"] = NewSet(optimizer.New(m, w.cat()), fixed)
		}
	}
	return sets
}

// TestGenerateMatchesInstanceReference pins the in-place draw to the
// full-instance reference: same template, the same bits in the estimate
// and every demand field, and the same rng cursor after every draw.
func TestGenerateMatchesInstanceReference(t *testing.T) {
	sets := referenceSets()
	if sets["tpch/estimate-noise"].opt.Model.EstimateSigma <= 0 {
		t.Fatal("the default model has no estimation noise; the sets do not cover a noisy estimate")
	}
	for name, s := range sets {
		got, want := rng.New(23), rng.New(23)
		sizeDraws, fixedDraws := 0, 0
		for i := 0; i < 20000; i++ {
			tmpl, cost, d := s.Generate(got)
			w := refGenerate(s, want)
			if tmpl != w.Template ||
				math.Float64bits(cost) != math.Float64bits(w.Timerons) ||
				math.Float64bits(d.Work) != math.Float64bits(w.Demand.Work) ||
				math.Float64bits(d.CPURate) != math.Float64bits(w.Demand.CPURate) ||
				math.Float64bits(d.IORate) != math.Float64bits(w.Demand.IORate) {
				t.Fatalf("%s draw %d: Generate = %q %v %+v, reference = %q %v %+v",
					name, i, tmpl, cost, d, w.Template, w.Timerons, w.Demand)
			}
			if got.State() != want.State() {
				t.Fatalf("%s draw %d: rng cursor %#x, reference %#x", name, i, got.State(), want.State())
			}
			for j := range s.templates {
				if s.templates[j].Name == tmpl {
					if s.templates[j].SizeSigma > 0 {
						sizeDraws++
					} else {
						fixedDraws++
					}
				}
			}
		}
		if sizeDraws == 0 {
			t.Fatalf("%s: no template with a size spread was drawn", name)
		}
		if strings.HasSuffix(name, "/half-fixed-size") && fixedDraws == 0 {
			t.Fatalf("%s: no fixed-size template was drawn", name)
		}
	}
}
