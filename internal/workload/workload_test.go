package workload

import (
	"math"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/rng"
)

func olapSet() *Set {
	opt := optimizer.New(optimizer.DefaultModel(), TPCHCatalog())
	return NewSet(opt, TPCHTemplates())
}

func oltpSet() *Set {
	opt := optimizer.New(optimizer.DefaultModel(), TPCCCatalog())
	return NewSet(opt, TPCCTemplates())
}

func TestPaperClasses(t *testing.T) {
	classes := PaperClasses()
	if len(classes) != 3 {
		t.Fatalf("%d classes, want 3", len(classes))
	}
	c1, c2, c3 := classes[0], classes[1], classes[2]
	if c1.Kind != OLAP || c2.Kind != OLAP || c3.Kind != OLTP {
		t.Fatal("class kinds wrong")
	}
	if c1.Goal.Target != 0.4 || c2.Goal.Target != 0.6 || c3.Goal.Target != 0.25 {
		t.Fatal("goals do not match the paper")
	}
	if !(c3.Importance > c2.Importance && c2.Importance > c1.Importance) {
		t.Fatal("importance ordering wrong")
	}
}

func TestGoalMet(t *testing.T) {
	v := Goal{Velocity, 0.5}
	if !v.Met(0.5) || !v.Met(0.9) || v.Met(0.4) {
		t.Fatal("velocity goal semantics wrong")
	}
	rt := Goal{AvgResponseTime, 0.25}
	if !rt.Met(0.25) || !rt.Met(0.1) || rt.Met(0.3) {
		t.Fatal("response-time goal semantics wrong")
	}
}

func TestTPCHTemplateCount(t *testing.T) {
	ts := TPCHTemplates()
	if len(ts) != 18 {
		t.Fatalf("%d OLAP templates, want 18 (22 minus Q16/Q19/Q20/Q21)", len(ts))
	}
	names := map[string]bool{}
	for _, tp := range ts {
		if tp.Kind != OLAP {
			t.Fatalf("template %s is not OLAP", tp.Name)
		}
		if names[tp.Name] {
			t.Fatalf("duplicate template %s", tp.Name)
		}
		names[tp.Name] = true
	}
	for _, excluded := range []string{"Q16", "Q19", "Q20", "Q21"} {
		if names[excluded] {
			t.Fatalf("%s must be excluded per the paper", excluded)
		}
	}
}

func TestOLAPCostSpread(t *testing.T) {
	s := olapSet()
	min, max := math.Inf(1), 0.0
	var sum float64
	for i := range s.Templates() {
		tm := s.BaseTimerons(i)
		if tm <= 0 {
			t.Fatalf("template %d has non-positive cost", i)
		}
		min = math.Min(min, tm)
		max = math.Max(max, tm)
		sum += tm
	}
	if max/min < 20 {
		t.Fatalf("cost spread %v is not heavy-tailed (min %v max %v)", max/min, min, max)
	}
	mean := sum / 18
	// The class cost limits in the experiments assume a workload mean in
	// the low thousands of timerons and a max below half the 30k system
	// limit (the paper excluded the very large queries for this reason).
	if mean < 1500 || mean > 8000 {
		t.Fatalf("mean OLAP cost %v out of calibrated range", mean)
	}
	if max > 15000 {
		t.Fatalf("max OLAP cost %v would starve under the 30k system limit", max)
	}
}

func TestOLTPTemplatesAreSubSecondAndCPUBound(t *testing.T) {
	s := oltpSet()
	for i, tp := range s.Templates() {
		c := s.BaseCost(i)
		d := DemandFor(c, 1)
		if d.Work >= 1 {
			t.Fatalf("%s exec alone %vs is not sub-second", tp.Name, d.Work)
		}
		if c.CPUSeconds <= c.IOSeconds {
			t.Fatalf("%s must be CPU-bound (cpu %v <= io %v)", tp.Name, c.CPUSeconds, c.IOSeconds)
		}
	}
}

func TestTPCCMixWeights(t *testing.T) {
	ts := TPCCTemplates()
	if len(ts) != 5 {
		t.Fatalf("%d OLTP templates, want 5", len(ts))
	}
	var total float64
	byName := map[string]float64{}
	for _, tp := range ts {
		total += tp.Weight
		byName[tp.Name] = tp.Weight
	}
	if byName["NewOrder"]/total < 0.40 {
		t.Fatal("NewOrder weight below TPC-C mix")
	}
	if byName["Payment"]/total < 0.40 {
		t.Fatal("Payment weight below TPC-C mix")
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	s := olapSet()
	a, b := rng.New(9), rng.New(9)
	for i := 0; i < 50; i++ {
		ta, ca, da := s.Generate(a)
		tb, cb, db := s.Generate(b)
		if ta != tb || ca != cb || da != db {
			t.Fatal("generation not deterministic for equal seeds")
		}
	}
}

// TestGenerateMatchesWeightedChoice pins Generate's template draw, made
// with the weight total summed once in NewSet, to rng.WeightedChoice over
// the template weights followed by the reference's per-template draw:
// from one seed, both paths yield equal queries.
func TestGenerateMatchesWeightedChoice(t *testing.T) {
	for name, s := range map[string]*Set{"tpch": olapSet(), "tpcc": oltpSet()} {
		var weights []float64
		for _, tp := range s.Templates() {
			weights = append(weights, tp.Weight)
		}
		got, want := rng.New(17), rng.New(17)
		for i := 0; i < 100000; i++ {
			tmpl, cost, d := s.Generate(got)
			w := refGenerateFrom(s, want.WeightedChoice(weights), want)
			if tmpl != w.Template || cost != w.Timerons || d != w.Demand {
				t.Fatalf("%s draw %d: Generate = %q %v %+v, WeightedChoice+reference = %+v", name, i, tmpl, cost, d, w)
			}
		}
	}
}

func TestGenerateVariesInstanceSize(t *testing.T) {
	s := olapSet()
	first := s.Templates()[0].Name
	src := rng.New(4)
	seen := map[float64]bool{}
	for n := 0; n < 30; {
		tmpl, _, d := s.Generate(src)
		if tmpl != first {
			continue
		}
		seen[d.CPUSeconds()] = true
		n++
	}
	if len(seen) < 25 {
		t.Fatalf("%s instance sizes barely vary: %d distinct of 30", first, len(seen))
	}
}

func TestGenerateEstimateDiffersFromTruth(t *testing.T) {
	s := olapSet()
	src, twin := rng.New(4), rng.New(4)
	diff := 0
	for i := 0; i < 50; i++ {
		_, cost, _ := s.Generate(src)
		w := refGenerate(s, twin)
		if math.Abs(w.Est.CPUSeconds-w.True.CPUSeconds) > 1e-12 && !close(cost, s.opt.Model.Timerons(w.True)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("optimizer estimation noise never applied")
	}
}

func TestGenerateDemandConsistency(t *testing.T) {
	s := olapSet()
	src, twin := rng.New(6), rng.New(6)
	for i := 0; i < 200; i++ {
		_, _, d := s.Generate(src)
		w := refGenerate(s, twin)
		if d.Work <= 0 {
			t.Fatal("non-positive work")
		}
		// Demand must conserve the plan's true CPU/IO seconds.
		if !close(d.CPUSeconds(), w.True.CPUSeconds) || !close(d.IOSeconds(), w.True.IOSeconds) {
			t.Fatalf("demand loses service time: %+v vs %+v", d, w.True)
		}
		if w.Parallelism < 1 || w.Parallelism > 2 {
			t.Fatalf("parallelism %d out of range", w.Parallelism)
		}
		// The demand spreads the larger of the true CPU and I/O seconds
		// over the parallelism degree, so the larger rate is that degree.
		if !close(math.Max(d.CPURate, d.IORate), float64(w.Parallelism)) {
			t.Fatalf("demand %+v does not run at parallelism %d", d, w.Parallelism)
		}
	}
}

func TestDemandForOverlapsStations(t *testing.T) {
	c := optimizer.Cost{CPUSeconds: 10, IOSeconds: 40}
	d := DemandFor(c, 1)
	if !close(d.Work, 40) {
		t.Fatalf("work = %v, want max(cpu,io) = 40", d.Work)
	}
	if !close(d.CPURate, 0.25) || !close(d.IORate, 1) {
		t.Fatalf("rates = %v/%v", d.CPURate, d.IORate)
	}
	d2 := DemandFor(c, 2)
	if !close(d2.Work, 20) || !close(d2.IORate, 2) {
		t.Fatalf("parallel demand = %+v", d2)
	}
}

func TestDemandForDegenerate(t *testing.T) {
	d := DemandFor(optimizer.Cost{}, 1)
	if d.Validate() != nil {
		t.Fatal("degenerate cost must still produce a valid demand")
	}
}

func TestParallelismForThresholds(t *testing.T) {
	if ParallelismFor(999) != 1 || ParallelismFor(1001) != 2 {
		t.Fatal("parallelism thresholds moved")
	}
}

func TestNewSetRejectsBadTemplates(t *testing.T) {
	opt := optimizer.New(optimizer.DefaultModel(), TPCHCatalog())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-weight template did not panic")
		}
	}()
	NewSet(opt, []Template{{Name: "bad", Plan: &optimizer.TableScan{Table: "lineitem"}, Weight: 0}})
}

func TestNewSetRejectsEmpty(t *testing.T) {
	opt := optimizer.New(optimizer.DefaultModel(), TPCHCatalog())
	defer func() {
		if recover() == nil {
			t.Fatal("empty set did not panic")
		}
	}()
	NewSet(opt, nil)
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
