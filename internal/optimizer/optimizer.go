// Package optimizer models the part of a DBMS query optimizer the paper's
// controller consumes: it turns an access plan against catalog statistics
// into estimated CPU and I/O service demands and a single scalar cost in
// *timerons* — DB2's "generic cost measure used by the optimizer to express
// the combined resource usage to execute a query".
//
// Two views of every plan exist:
//
//   - the *true* resource demand, which drives the simulated engine, and
//   - the *estimate*, which is the true demand perturbed by estimation
//     noise (Model.EstimateSigma, drawn per query by workload.Set.Generate)
//     and is the only thing the controller ever sees. The paper notes that
//     "cost-based resource allocation is somehow inaccurate"; the noise
//     models that inaccuracy and is ablatable.
package optimizer

import (
	"fmt"
	"math"

	"repro/internal/catalog"
)

// Cost accumulates the estimated resources for a (sub)plan.
type Cost struct {
	CPUSeconds float64 // CPU service demand with one dedicated CPU
	IOSeconds  float64 // I/O service demand with one dedicated disk stream
	Rows       float64 // output cardinality
	Pages      float64 // pages read or written
}

// Add returns the sum of two costs, keeping the receiver's Rows.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		CPUSeconds: c.CPUSeconds + o.CPUSeconds,
		IOSeconds:  c.IOSeconds + o.IOSeconds,
		Rows:       c.Rows,
		Pages:      c.Pages + o.Pages,
	}
}

// Model holds the cost-model coefficients. All times are seconds; the
// defaults approximate the paper's testbed (dual 1 GHz CPUs, SCSI disk
// array with prefetch).
type Model struct {
	// SeqPageIO is the time to read one page sequentially.
	SeqPageIO float64
	// RandPageIO is the time to read one page with a random seek.
	RandPageIO float64
	// CPURow is the CPU time to process one row through a simple operator.
	CPURow float64
	// CPUHashRow is the CPU time to hash/probe one row.
	CPUHashRow float64
	// CPUCompare is the CPU time for one sort comparison.
	CPUCompare float64
	// SortMemRows is the number of rows that sort in memory; larger inputs
	// spill and pay extra I/O.
	SortMemRows float64
	// LogWriteIO is the I/O time to force one log write (transactions).
	LogWriteIO float64
	// StmtOverheadCPU is the per-statement CPU overhead (parse, bind,
	// agent dispatch) charged for each statement in a Batch — significant
	// for multi-statement OLTP transactions, negligible for single long
	// DSS queries.
	StmtOverheadCPU float64
	// TimeronPerCPUSec and TimeronPerIOSec convert service demands into
	// the scalar timeron cost.
	TimeronPerCPUSec float64
	TimeronPerIOSec  float64
	// EstimateSigma is the log-normal sigma of estimation noise applied
	// to the optimizer's cost estimate (0 disables noise).
	EstimateSigma float64
}

// DefaultModel returns coefficients calibrated so that the paper's
// workload spans roughly 100-25,000 timerons for TPC-H-like queries and
// ~1 timeron for TPC-C-like transactions, with a system cost-limit knee
// near 30,000 timerons (see EXPERIMENTS.md).
func DefaultModel() Model {
	return Model{
		SeqPageIO:        0.0002,
		RandPageIO:       0.004,
		CPURow:           3e-6,
		CPUHashRow:       5.5e-6,
		CPUCompare:       0.7e-6,
		SortMemRows:      200_000,
		LogWriteIO:       0.0005,
		StmtOverheadCPU:  0.0012,
		TimeronPerCPUSec: 160,
		TimeronPerIOSec:  43,
		EstimateSigma:    0.15,
	}
}

// Timerons converts a cost into the scalar timeron measure.
func (m Model) Timerons(c Cost) float64 {
	return c.CPUSeconds*m.TimeronPerCPUSec + c.IOSeconds*m.TimeronPerIOSec
}

// Op is a node in an access plan.
type Op interface {
	// cost computes the cumulative cost of the subtree rooted here.
	cost(m Model, cat *catalog.Catalog) Cost
	// String names the operator for plan rendering.
	String() string
	// Children returns the operator's inputs.
	Children() []Op
}

// TableScan reads an entire table sequentially, emitting Selectivity of
// its rows.
type TableScan struct {
	Table       string
	Selectivity float64
}

func (o *TableScan) String() string { return fmt.Sprintf("TBSCAN(%s)", o.Table) }

// Children implements Op.
func (o *TableScan) Children() []Op { return nil }

func (o *TableScan) cost(m Model, cat *catalog.Catalog) Cost {
	t := cat.MustTable(o.Table)
	sel := clampSel(o.Selectivity)
	return Cost{
		CPUSeconds: float64(t.Rows) * m.CPURow,
		IOSeconds:  float64(t.Pages) * m.SeqPageIO,
		Rows:       float64(t.Rows) * sel,
		Pages:      float64(t.Pages),
	}
}

// IndexScan reads Selectivity of a table through an index. Clustered
// indexes touch contiguous data pages; unclustered ones pay a random read
// per qualifying row (capped at the table size).
type IndexScan struct {
	Index       string
	Selectivity float64
}

func (o *IndexScan) String() string { return fmt.Sprintf("IXSCAN(%s)", o.Index) }

// Children implements Op.
func (o *IndexScan) Children() []Op { return nil }

func (o *IndexScan) cost(m Model, cat *catalog.Catalog) Cost {
	ix, ok := cat.Index(o.Index)
	if !ok {
		panic(fmt.Sprintf("optimizer: unknown index %q", o.Index))
	}
	t := cat.MustTable(ix.Table)
	sel := clampSel(o.Selectivity)
	rows := float64(t.Rows) * sel
	leaf := float64(ix.LeafPages)*sel + float64(ix.Levels)
	var dataIO, dataPages float64
	if ix.Clustering {
		dataPages = float64(t.Pages) * sel
		dataIO = dataPages * m.SeqPageIO
	} else {
		dataPages = math.Min(rows, float64(t.Pages))
		dataIO = dataPages * m.RandPageIO
	}
	return Cost{
		CPUSeconds: rows * m.CPURow,
		IOSeconds:  leaf*m.SeqPageIO + dataIO,
		Rows:       rows,
		Pages:      leaf + dataPages,
	}
}

// Filter applies a predicate, keeping Selectivity of its input's rows.
type Filter struct {
	Input       Op
	Selectivity float64
}

func (o *Filter) String() string { return "FILTER" }

// Children implements Op.
func (o *Filter) Children() []Op { return []Op{o.Input} }

func (o *Filter) cost(m Model, cat *catalog.Catalog) Cost {
	in := o.Input.cost(m, cat)
	c := in
	c.CPUSeconds += in.Rows * m.CPURow
	c.Rows = in.Rows * clampSel(o.Selectivity)
	return c
}

// HashJoin joins two inputs with a hash table built on the smaller side.
// JoinSelectivity scales the Cartesian cardinality; Fanout, when non-zero,
// instead sets output rows = probe rows * Fanout (the common key-FK case).
type HashJoin struct {
	Build, Probe    Op
	JoinSelectivity float64
	Fanout          float64
}

func (o *HashJoin) String() string { return "HSJOIN" }

// Children implements Op.
func (o *HashJoin) Children() []Op { return []Op{o.Build, o.Probe} }

func (o *HashJoin) cost(m Model, cat *catalog.Catalog) Cost {
	b := o.Build.cost(m, cat)
	p := o.Probe.cost(m, cat)
	c := b.Add(p)
	c.CPUSeconds += (b.Rows + p.Rows) * m.CPUHashRow
	// Spill: when the build side exceeds sort memory, write+read it once.
	if b.Rows > m.SortMemRows {
		spillPages := b.Rows * 64 / catalog.PageSize // ~64 B spilled per row
		c.IOSeconds += 2 * spillPages * m.SeqPageIO
		c.Pages += 2 * spillPages
	}
	if o.Fanout > 0 {
		c.Rows = p.Rows * o.Fanout
	} else {
		c.Rows = b.Rows * p.Rows * clampSel(o.JoinSelectivity)
	}
	return c
}

// NLJoin probes an index once per outer row (index nested-loop join).
type NLJoin struct {
	Outer      Op
	InnerIndex string
	// MatchRows is the average number of inner rows per outer row.
	MatchRows float64
}

func (o *NLJoin) String() string { return fmt.Sprintf("NLJOIN(%s)", o.InnerIndex) }

// Children implements Op.
func (o *NLJoin) Children() []Op { return []Op{o.Outer} }

func (o *NLJoin) cost(m Model, cat *catalog.Catalog) Cost {
	out := o.Outer.cost(m, cat)
	ix, ok := cat.Index(o.InnerIndex)
	if !ok {
		panic(fmt.Sprintf("optimizer: unknown index %q", o.InnerIndex))
	}
	c := out
	probes := out.Rows
	// Each probe descends the B-tree; assume interior levels cached, leaf
	// plus one data page paid as random I/O with a warm-cache discount.
	const cacheHit = 0.7
	perProbeIO := (1 - cacheHit) * 2 * m.RandPageIO
	c.CPUSeconds += probes * float64(ix.Levels) * 4 * m.CPURow
	c.IOSeconds += probes * perProbeIO
	c.Pages += probes * 2 * (1 - cacheHit)
	match := o.MatchRows
	if match <= 0 {
		match = 1
	}
	c.Rows = probes * match
	return c
}

// Sort orders its input, spilling to disk beyond Model.SortMemRows.
type Sort struct {
	Input Op
}

func (o *Sort) String() string { return "SORT" }

// Children implements Op.
func (o *Sort) Children() []Op { return []Op{o.Input} }

func (o *Sort) cost(m Model, cat *catalog.Catalog) Cost {
	in := o.Input.cost(m, cat)
	c := in
	n := math.Max(in.Rows, 2)
	c.CPUSeconds += n * math.Log2(n) * m.CPUCompare
	if in.Rows > m.SortMemRows {
		spillPages := in.Rows * 64 / catalog.PageSize
		c.IOSeconds += 2 * spillPages * m.SeqPageIO
		c.Pages += 2 * spillPages
	}
	return c
}

// GroupAgg aggregates its input into Groups output rows.
type GroupAgg struct {
	Input  Op
	Groups float64
}

func (o *GroupAgg) String() string { return "GRPBY" }

// Children implements Op.
func (o *GroupAgg) Children() []Op { return []Op{o.Input} }

func (o *GroupAgg) cost(m Model, cat *catalog.Catalog) Cost {
	in := o.Input.cost(m, cat)
	c := in
	c.CPUSeconds += in.Rows * m.CPUHashRow
	g := o.Groups
	if g <= 0 {
		g = 1
	}
	c.Rows = math.Min(g, math.Max(in.Rows, 1))
	return c
}

// IndexLookup fetches Rows rows by exact key through an index — the bread
// and butter of OLTP plans.
type IndexLookup struct {
	Index string
	Rows  float64
}

func (o *IndexLookup) String() string { return fmt.Sprintf("FETCH(%s)", o.Index) }

// Children implements Op.
func (o *IndexLookup) Children() []Op { return nil }

func (o *IndexLookup) cost(m Model, cat *catalog.Catalog) Cost {
	ix, ok := cat.Index(o.Index)
	if !ok {
		panic(fmt.Sprintf("optimizer: unknown index %q", o.Index))
	}
	rows := math.Max(o.Rows, 1)
	// OLTP working sets are hot: most lookups hit the buffer pool. The
	// B-tree is descended once; each qualifying row then pays a fetch.
	const cacheHit = 0.995
	c := Cost{
		CPUSeconds: (float64(ix.Levels)*20 + rows*20) * m.CPURow,
		IOSeconds:  rows * (1 - cacheHit) * 2 * m.RandPageIO,
		Rows:       rows,
		Pages:      rows * 2 * (1 - cacheHit),
	}
	return c
}

// Update modifies Rows rows already located by Input and forces a log
// write at commit.
type Update struct {
	Input Op
	Rows  float64
}

func (o *Update) String() string { return "UPDATE" }

// Children implements Op.
func (o *Update) Children() []Op { return []Op{o.Input} }

func (o *Update) cost(m Model, cat *catalog.Catalog) Cost {
	in := o.Input.cost(m, cat)
	rows := o.Rows
	if rows <= 0 {
		rows = in.Rows
	}
	c := in
	c.CPUSeconds += rows * 20 * m.CPURow
	c.IOSeconds += m.LogWriteIO
	c.Rows = rows
	return c
}

// Insert appends Rows rows into a table and forces a log write.
type Insert struct {
	Table string
	Rows  float64
}

func (o *Insert) String() string { return fmt.Sprintf("INSERT(%s)", o.Table) }

// Children implements Op.
func (o *Insert) Children() []Op { return nil }

func (o *Insert) cost(m Model, cat *catalog.Catalog) Cost {
	cat.MustTable(o.Table) // validate
	rows := math.Max(o.Rows, 1)
	return Cost{
		CPUSeconds: rows * 25 * m.CPURow,
		IOSeconds:  m.LogWriteIO,
		Rows:       rows,
	}
}

// Batch sequences several statements into one unit of work — how the
// TPC-C-like transactions (which run many lookups, updates, and inserts
// per transaction) are costed.
type Batch struct {
	Ops []Op
	// Repeat runs the whole batch Repeat times (0 means once).
	Repeat int
}

func (o *Batch) String() string { return fmt.Sprintf("BATCH(x%d)", max(o.Repeat, 1)) }

// Children implements Op.
func (o *Batch) Children() []Op { return o.Ops }

func (o *Batch) cost(m Model, cat *catalog.Catalog) Cost {
	var c Cost
	for _, op := range o.Ops {
		oc := op.cost(m, cat)
		c.CPUSeconds += oc.CPUSeconds + m.StmtOverheadCPU
		c.IOSeconds += oc.IOSeconds
		c.Pages += oc.Pages
		c.Rows = oc.Rows
	}
	r := float64(max(o.Repeat, 1))
	c.CPUSeconds *= r
	c.IOSeconds *= r
	c.Pages *= r
	return c
}

// Optimizer evaluates plans against one catalog.
type Optimizer struct {
	Model   Model
	Catalog *catalog.Catalog
}

// New returns an optimizer over cat using model m.
func New(m Model, cat *catalog.Catalog) *Optimizer {
	if cat == nil {
		panic("optimizer: nil catalog")
	}
	return &Optimizer{Model: m, Catalog: cat}
}

// Cost returns the exact (noise-free) cost of a plan.
func (o *Optimizer) Cost(plan Op) Cost {
	if plan == nil {
		panic("optimizer: nil plan")
	}
	return plan.cost(o.Model, o.Catalog)
}

// Explain renders the plan tree with per-node costs, one node per line —
// the moral equivalent of DB2's EXPLAIN output and handy in examples.
func (o *Optimizer) Explain(plan Op) string {
	var b []byte
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		c := op.cost(o.Model, o.Catalog)
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, fmt.Sprintf("%-24s rows=%-12.0f timerons=%.1f\n",
			op.String(), c.Rows, o.Model.Timerons(c))...)
		for _, ch := range op.Children() {
			walk(ch, depth+1)
		}
	}
	walk(plan, 0)
	return string(b)
}

func clampSel(s float64) float64 {
	if s <= 0 {
		return 1 // unspecified selectivity means "everything"
	}
	if s > 1 {
		return 1
	}
	return s
}
