package optimizer

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
)

func testCatalog() *catalog.Catalog {
	c := catalog.New("test")
	c.AddTable(catalog.Table{Name: "big", Rows: 1_000_000, RowBytes: 100})
	c.AddTable(catalog.Table{Name: "small", Rows: 1_000, RowBytes: 100})
	c.AddIndex(catalog.Index{Name: "big_pk", Table: "big", Columns: []string{"id"}, Clustering: true})
	c.AddIndex(catalog.Index{Name: "big_sec", Table: "big", Columns: []string{"x"}})
	c.AddIndex(catalog.Index{Name: "small_pk", Table: "small", Columns: []string{"id"}, Clustering: true})
	return c
}

func newOpt() *Optimizer { return New(DefaultModel(), testCatalog()) }

func TestTableScanCost(t *testing.T) {
	o := newOpt()
	c := o.Cost(&TableScan{Table: "big", Selectivity: 0.5})
	m := o.Model
	wantCPU := 1_000_000 * m.CPURow
	if !close(c.CPUSeconds, wantCPU) {
		t.Fatalf("cpu = %v, want %v", c.CPUSeconds, wantCPU)
	}
	if c.Rows != 500_000 {
		t.Fatalf("rows = %v, want 500000 after selectivity", c.Rows)
	}
	if c.IOSeconds <= 0 || c.Pages <= 0 {
		t.Fatal("scan must read pages")
	}
}

func TestTableScanDefaultSelectivity(t *testing.T) {
	o := newOpt()
	c := o.Cost(&TableScan{Table: "big"})
	if c.Rows != 1_000_000 {
		t.Fatalf("unspecified selectivity should emit everything, got %v", c.Rows)
	}
}

func TestClusteredIndexScanCheaperThanUnclustered(t *testing.T) {
	o := newOpt()
	cl := o.Cost(&IndexScan{Index: "big_pk", Selectivity: 0.1})
	uncl := o.Cost(&IndexScan{Index: "big_sec", Selectivity: 0.1})
	if cl.IOSeconds >= uncl.IOSeconds {
		t.Fatalf("clustered I/O %v should be cheaper than unclustered %v", cl.IOSeconds, uncl.IOSeconds)
	}
}

func TestSmallIndexScanCheaperThanFullScan(t *testing.T) {
	o := newOpt()
	scan := o.Cost(&TableScan{Table: "big"})
	ix := o.Cost(&IndexScan{Index: "big_pk", Selectivity: 0.001})
	if o.Model.Timerons(ix) >= o.Model.Timerons(scan) {
		t.Fatalf("selective index scan %v should beat full scan %v",
			o.Model.Timerons(ix), o.Model.Timerons(scan))
	}
}

func TestFilterReducesRowsAddsCPU(t *testing.T) {
	o := newOpt()
	base := o.Cost(&TableScan{Table: "big"})
	f := o.Cost(&Filter{Input: &TableScan{Table: "big"}, Selectivity: 0.25})
	if f.Rows != base.Rows*0.25 {
		t.Fatalf("filtered rows = %v", f.Rows)
	}
	if f.CPUSeconds <= base.CPUSeconds {
		t.Fatal("filter must add CPU")
	}
	if f.IOSeconds != base.IOSeconds {
		t.Fatal("filter must not add I/O")
	}
}

func TestHashJoinFanoutAndSelectivity(t *testing.T) {
	o := newOpt()
	build := &TableScan{Table: "small"}
	probe := &TableScan{Table: "big"}
	fan := o.Cost(&HashJoin{Build: build, Probe: probe, Fanout: 2})
	if fan.Rows != 2_000_000 {
		t.Fatalf("fanout rows = %v, want 2M", fan.Rows)
	}
	sel := o.Cost(&HashJoin{Build: build, Probe: probe, JoinSelectivity: 1e-6})
	want := 1000.0 * 1_000_000 * 1e-6
	if !close(sel.Rows, want) {
		t.Fatalf("selectivity rows = %v, want %v", sel.Rows, want)
	}
}

func TestHashJoinSpill(t *testing.T) {
	o := newOpt()
	inMem := o.Cost(&HashJoin{
		Build:  &TableScan{Table: "small"},
		Probe:  &TableScan{Table: "big"},
		Fanout: 1,
	})
	spilled := o.Cost(&HashJoin{
		Build:  &TableScan{Table: "big"}, // 1M rows > SortMemRows
		Probe:  &TableScan{Table: "small"},
		Fanout: 1,
	})
	scanIO := o.Cost(&TableScan{Table: "big"}).IOSeconds +
		o.Cost(&TableScan{Table: "small"}).IOSeconds
	if !close(inMem.IOSeconds, scanIO) {
		t.Fatal("in-memory join should add no I/O")
	}
	if spilled.IOSeconds <= scanIO {
		t.Fatal("oversized build side must spill")
	}
}

func TestSortCosts(t *testing.T) {
	o := newOpt()
	small := o.Cost(&Sort{Input: &TableScan{Table: "small"}})
	big := o.Cost(&Sort{Input: &TableScan{Table: "big"}})
	if small.IOSeconds != o.Cost(&TableScan{Table: "small"}).IOSeconds {
		t.Fatal("small sort should stay in memory")
	}
	if big.IOSeconds <= o.Cost(&TableScan{Table: "big"}).IOSeconds {
		t.Fatal("big sort must spill")
	}
	if big.CPUSeconds <= o.Cost(&TableScan{Table: "big"}).CPUSeconds {
		t.Fatal("sort must add comparisons")
	}
}

func TestGroupAggCapsGroups(t *testing.T) {
	o := newOpt()
	c := o.Cost(&GroupAgg{Input: &TableScan{Table: "small"}, Groups: 1_000_000})
	if c.Rows != 1000 {
		t.Fatalf("groups capped at input rows: %v", c.Rows)
	}
	c = o.Cost(&GroupAgg{Input: &TableScan{Table: "big"}, Groups: 7})
	if c.Rows != 7 {
		t.Fatalf("rows = %v, want 7 groups", c.Rows)
	}
}

func TestNLJoinScalesWithOuter(t *testing.T) {
	o := newOpt()
	one := o.Cost(&NLJoin{Outer: &TableScan{Table: "small", Selectivity: 0.001}, InnerIndex: "big_sec", MatchRows: 3})
	many := o.Cost(&NLJoin{Outer: &TableScan{Table: "small"}, InnerIndex: "big_sec", MatchRows: 3})
	if many.IOSeconds <= one.IOSeconds {
		t.Fatal("more probes must cost more I/O")
	}
	if many.Rows != 3000 {
		t.Fatalf("rows = %v, want outer*match", many.Rows)
	}
}

func TestIndexLookupIsCheap(t *testing.T) {
	o := newOpt()
	c := o.Cost(&IndexLookup{Index: "big_pk", Rows: 1})
	if ts := o.Model.Timerons(c); ts > 1 {
		t.Fatalf("point lookup = %v timerons, should be tiny", ts)
	}
	if c.CPUSeconds <= 0 {
		t.Fatal("lookup needs CPU")
	}
}

func TestUpdateAndInsertForceLog(t *testing.T) {
	o := newOpt()
	u := o.Cost(&Update{Input: &IndexLookup{Index: "big_pk", Rows: 1}, Rows: 1})
	if u.IOSeconds < o.Model.LogWriteIO {
		t.Fatal("update must force a log write")
	}
	i := o.Cost(&Insert{Table: "small", Rows: 5})
	if i.IOSeconds < o.Model.LogWriteIO {
		t.Fatal("insert must force a log write")
	}
}

func TestBatchSumsAndRepeats(t *testing.T) {
	o := newOpt()
	one := o.Cost(&Batch{Ops: []Op{&IndexLookup{Index: "big_pk", Rows: 1}}})
	ten := o.Cost(&Batch{Ops: []Op{&IndexLookup{Index: "big_pk", Rows: 1}}, Repeat: 10})
	if !close(ten.CPUSeconds, 10*one.CPUSeconds) {
		t.Fatalf("repeat: %v vs 10x %v", ten.CPUSeconds, one.CPUSeconds)
	}
	// Per-statement overhead must be charged once per op.
	two := o.Cost(&Batch{Ops: []Op{
		&IndexLookup{Index: "big_pk", Rows: 1},
		&IndexLookup{Index: "big_pk", Rows: 1},
	}})
	if two.CPUSeconds <= 2*one.CPUSeconds-o.Model.StmtOverheadCPU/2 && o.Model.StmtOverheadCPU > 0 {
		t.Fatal("expected per-statement overhead")
	}
}

func TestExplainRendersTree(t *testing.T) {
	o := newOpt()
	plan := &HashJoin{
		Build:  &TableScan{Table: "small"},
		Probe:  &Filter{Input: &TableScan{Table: "big"}, Selectivity: 0.5},
		Fanout: 1,
	}
	out := o.Explain(plan)
	for _, want := range []string{"HSJOIN", "TBSCAN(small)", "FILTER", "TBSCAN(big)", "timerons"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// Children must be indented deeper than the root.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("explain should have 4 nodes, got %d", len(lines))
	}
	if strings.HasPrefix(lines[1], strings.TrimLeft(lines[0], " ")) {
		t.Fatal("children not indented")
	}
}

func TestUnknownObjectsPanic(t *testing.T) {
	o := newOpt()
	for _, plan := range []Op{
		&TableScan{Table: "nope"},
		&IndexScan{Index: "nope"},
		&IndexLookup{Index: "nope"},
		&NLJoin{Outer: &TableScan{Table: "small"}, InnerIndex: "nope"},
		&Insert{Table: "nope"},
	} {
		plan := plan
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T with unknown object did not panic", plan)
				}
			}()
			o.Cost(plan)
		}()
	}
}

func TestCostMonotoneInSelectivity(t *testing.T) {
	o := newOpt()
	prev := -1.0
	for sel := 0.1; sel <= 1.0; sel += 0.1 {
		c := o.Model.Timerons(o.Cost(&IndexScan{Index: "big_pk", Selectivity: sel}))
		if c < prev {
			t.Fatalf("cost decreased with selectivity at %v", sel)
		}
		prev = c
	}
}

func TestTimeronsLinearInDemands(t *testing.T) {
	m := DefaultModel()
	a := Cost{CPUSeconds: 1, IOSeconds: 0}
	b := Cost{CPUSeconds: 0, IOSeconds: 1}
	if !close(m.Timerons(a), m.TimeronPerCPUSec) || !close(m.Timerons(b), m.TimeronPerIOSec) {
		t.Fatal("timeron weights wrong")
	}
	sum := Cost{CPUSeconds: 1, IOSeconds: 1}
	if !close(m.Timerons(sum), m.TimeronPerCPUSec+m.TimeronPerIOSec) {
		t.Fatal("timerons not additive")
	}
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
