// Package workload defines the paper's mixed workload: service classes
// with performance goals and business importance, TPC-H-like and
// TPC-C-like query templates, closed-loop interactive clients with zero
// think time, and the 18-period intensity schedule of Figure 3.
package workload

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/rng"
)

// Kind distinguishes the two workload types in the mix.
type Kind int

// Workload kinds.
const (
	OLAP Kind = iota
	OLTP
)

func (k Kind) String() string {
	if k == OLAP {
		return "OLAP"
	}
	return "OLTP"
}

// GoalMetric is the metric a class of kind k states its goal in:
// velocity for OLAP, average response time for OLTP.
func (k Kind) GoalMetric() Metric {
	if k == OLAP {
		return Velocity
	}
	return AvgResponseTime
}

// Metric is the performance metric a class's goal is expressed in. The
// paper uses query velocity for OLAP classes (their response times vary
// too widely for a response-time goal to be meaningful) and average
// response time for the OLTP class.
type Metric int

// Goal metrics.
const (
	// Velocity goals are "at least": measured velocity >= Target.
	Velocity Metric = iota
	// AvgResponseTime goals are "at most": measured mean RT <= Target.
	AvgResponseTime
)

func (m Metric) String() string {
	if m == Velocity {
		return "velocity"
	}
	return "avg-response-time"
}

// Goal is a class's service level objective.
type Goal struct {
	Metric Metric
	Target float64
}

// Met reports whether an observed value satisfies the goal.
func (g Goal) Met(observed float64) bool {
	if g.Metric == Velocity {
		return observed >= g.Target
	}
	return observed <= g.Target
}

// String renders the goal the way the paper states them.
func (g Goal) String() string {
	if g.Metric == Velocity {
		return fmt.Sprintf("velocity >= %.2f", g.Target)
	}
	return fmt.Sprintf("avg RT <= %.2gs", g.Target)
}

// Class is a service class: a named slice of the workload with a goal and
// a business importance level (higher is more important; importance only
// matters while the goal is violated — it is not a priority).
type Class struct {
	ID         engine.ClassID
	Name       string
	Kind       Kind
	Goal       Goal
	Importance int
}

// PaperClasses returns the three service classes of the paper's
// experiments: two OLAP classes with velocity goals 0.4 (importance 1) and
// 0.6 (importance 2), and the OLTP class with a 0.25 s average
// response-time goal (importance 3, the highest).
func PaperClasses() []*Class {
	return []*Class{
		{ID: 1, Name: "Class 1", Kind: OLAP, Goal: Goal{Velocity, 0.40}, Importance: 1},
		{ID: 2, Name: "Class 2", Kind: OLAP, Goal: Goal{Velocity, 0.60}, Importance: 2},
		{ID: 3, Name: "Class 3", Kind: OLTP, Goal: Goal{AvgResponseTime, 0.25}, Importance: 3},
	}
}

// Template is one query or transaction type a class's clients draw from.
type Template struct {
	Name string
	Kind Kind
	Plan optimizer.Op
	// Weight is the template's relative frequency within its set.
	Weight float64
	// SizeSigma is the log-normal spread of per-instance size: individual
	// executions of the same template vary with predicate values.
	SizeSigma float64
}

// Set is a compiled collection of templates sharing one optimizer.
type Set struct {
	opt       *optimizer.Optimizer
	templates []Template
	weights   []float64
	total     float64 // sum of weights, in slice order
	base      []optimizer.Cost
}

// NewSet compiles templates against opt, pre-costing every plan once.
func NewSet(opt *optimizer.Optimizer, templates []Template) *Set {
	if len(templates) == 0 {
		panic("workload: empty template set")
	}
	s := &Set{opt: opt, templates: templates}
	for _, t := range templates {
		if t.Weight <= 0 {
			panic(fmt.Sprintf("workload: template %q has non-positive weight", t.Name))
		}
		s.weights = append(s.weights, t.Weight)
		s.total += t.Weight
		s.base = append(s.base, opt.Cost(t.Plan))
	}
	return s
}

// Templates returns the compiled templates (shared; do not mutate).
func (s *Set) Templates() []Template { return s.templates }

// BaseCost returns the noise-free cost of template i.
func (s *Set) BaseCost(i int) optimizer.Cost { return s.base[i] }

// BaseTimerons returns the noise-free timeron cost of template i.
func (s *Set) BaseTimerons(i int) float64 { return s.opt.Model.Timerons(s.base[i]) }

// Generate draws one query and returns what a submitted query carries:
// the template's name, the optimizer's timeron estimate and the true
// engine demand. The template is drawn by weight, the instance size by
// the template's log-normal spread, and the estimate is the true cost
// perturbed by the cost model's estimation noise. The weights are
// validated and summed once, in NewSet. Only the CPU and I/O seconds are
// carried through the draws: neither the demand nor the timerons read
// a cost's rows or pages.
//
//qlint:hotpath
func (s *Set) Generate(src *rng.Source) (template string, timerons float64, d engine.Demand) {
	i := src.WeightedChoiceSum(s.weights, s.total)
	t := &s.templates[i]
	truth := optimizer.Cost{CPUSeconds: s.base[i].CPUSeconds, IOSeconds: s.base[i].IOSeconds}
	if t.SizeSigma > 0 {
		f := src.LogNormalMedian(1, t.SizeSigma)
		truth.CPUSeconds *= f
		truth.IOSeconds *= f
	}
	m := &s.opt.Model
	est := truth
	if sigma := m.EstimateSigma; sigma > 0 {
		f := src.LogNormalMedian(1, sigma)
		est.CPUSeconds *= f
		est.IOSeconds *= f
	}
	return t.Name, m.Timerons(est), DemandFor(truth, ParallelismFor(m.Timerons(truth)))
}

// ParallelismFor maps a query's true size to its intra-query parallelism
// degree: sub-second statements run serially; large DSS queries run with
// degree 2 (DB2 intra-partition parallelism on the paper's two-CPU box).
func ParallelismFor(timerons float64) int {
	if timerons < 1000 {
		return 1
	}
	return 2
}

// DemandFor converts a cost into an engine demand: CPU and I/O proceed in
// overlapped pipelines, so stand-alone execution time is the larger of the
// two demands divided by the parallelism degree, and the consumption rates
// follow from preserving total CPU- and I/O-seconds.
func DemandFor(c optimizer.Cost, parallelism int) engine.Demand {
	if parallelism < 1 {
		parallelism = 1
	}
	cpu := math.Max(c.CPUSeconds, 0)
	io := math.Max(c.IOSeconds, 0)
	long := math.Max(cpu, io)
	if long <= 0 {
		// Degenerate plan; give it a microscopic CPU-only demand.
		return engine.Demand{Work: 1e-6, CPURate: 1}
	}
	work := long / float64(parallelism)
	return engine.Demand{
		Work:    work,
		CPURate: cpu / work,
		IORate:  io / work,
	}
}
