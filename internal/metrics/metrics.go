// Package metrics aggregates per-class performance over the experiment's
// periods — the numbers plotted in the paper's Figures 4-6: query velocity
// for the OLAP classes and average response time for the OLTP class,
// per 8-minute period.
package metrics

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ClassAgg accumulates one class's statistics within one period.
// Completion statistics bucket by DoneTime; Submitted buckets by
// SubmitTime, so within one period the two count different query sets.
type ClassAgg struct {
	Completed int
	// Submitted counts queries that arrived during the period, whether
	// or not they finished — the denominator that keeps still-queued and
	// still-running work visible (see Collector.Pending). Retries of an
	// already-counted query are not new arrivals and are excluded.
	Submitted int
	// Failed counts queries that ended the period aborted with no retry
	// left — terminal failures, bucketed by their failure time.
	Failed   int
	Velocity stats.Summary // per-query velocity of completions
	Resp     stats.Summary // response times
	Exec     stats.Summary // execution times
	Cost     stats.Summary // timeron costs of completions
	// RespSample is a fixed-size uniform sample of response times for
	// tail quantiles (see Collector.RespQuantile).
	RespSample *stats.Reservoir
}

// Collector listens to engine completions and buckets them by schedule
// period and class.
//
// Aggregates live in one flat slice, periods × classes, preallocated at
// construction; the per-query hooks find a class's slot through the
// roster's class index instead of a map lookup. Determinism is
// unaffected: the layout only changes where an aggregate lives, never
// the order in which values fold into it.
type Collector struct {
	idx      workload.ClassIndex // class ID → slot, slots in ascending ID order
	classes  []*workload.Class   // by slot
	sched    workload.Schedule
	nperiods int
	aggs     []ClassAgg // period-major: period*idx.Len() + slot
}

// NewCollector builds a collector for the given classes and schedule and
// hooks it into the engine.
func NewCollector(eng *engine.Engine, classes []*workload.Class, sched workload.Schedule) *Collector {
	c := &Collector{
		idx:      workload.NewClassIndex(classes),
		sched:    sched,
		nperiods: sched.Periods(),
	}
	c.classes = make([]*workload.Class, c.idx.Len())
	for _, cl := range classes {
		c.classes[c.idx.Row(cl.ID)] = cl
	}
	c.aggs = make([]ClassAgg, c.nperiods*c.idx.Len())
	for p := 0; p < c.nperiods; p++ {
		for slot, id := range c.idx.IDs() {
			// Seed per period and class so runs stay reproducible.
			seed := uint64(p)*1000003 + uint64(id)
			c.aggs[p*c.idx.Len()+slot].RespSample = stats.NewReservoir(512, seed)
		}
	}
	c.Attach(eng)
	return c
}

// Attach subscribes the collector to an additional engine's submit and
// done hooks. A fleet run has one engine per backend but one logical
// workload; attaching the same collector to every engine folds all
// completions into a single period × class view, exactly as if one
// engine had run them.
func (c *Collector) Attach(eng *engine.Engine) {
	eng.OnSubmit(c.onSubmit)
	eng.OnDone(c.onDone)
}

// agg returns the aggregate for a period and class, or nil when the class
// is untracked. The period must be in range.
func (c *Collector) agg(period int, class engine.ClassID) *ClassAgg {
	slot := c.idx.Row(class)
	if slot < 0 {
		return nil
	}
	return &c.aggs[period*c.idx.Len()+slot]
}

//qlint:hotpath
func (c *Collector) onSubmit(q *engine.Query) {
	if q.Attempt > 0 {
		return // a retry re-enters the engine but is not a new arrival
	}
	agg := c.agg(c.sched.PeriodAt(q.SubmitTime), q.Class)
	if agg == nil {
		return // class not tracked (e.g. ad-hoc test query)
	}
	agg.Submitted++
}

//qlint:hotpath
func (c *Collector) onDone(q *engine.Query) {
	agg := c.agg(c.sched.PeriodAt(q.DoneTime), q.Class)
	if agg == nil {
		return // class not tracked (e.g. ad-hoc test query)
	}
	if q.State != engine.StateDone {
		// Terminal failure: no velocity or response time to fold in, but
		// count it so Pending doesn't report it queued forever.
		agg.Failed++
		return
	}
	agg.Completed++
	agg.Velocity.Add(q.Velocity())
	agg.Resp.Add(q.ResponseTime())
	agg.RespSample.Add(q.ResponseTime())
	agg.Exec.Add(q.ExecutionTime())
	agg.Cost.Add(q.Cost)
}

// Classes returns the tracked classes sorted by ID — a stable order for
// rendering, whatever order they were registered in.
func (c *Collector) Classes() []*workload.Class { return slices.Clone(c.classes) }

// ClassIDs returns the tracked class IDs in ascending order.
func (c *Collector) ClassIDs() []engine.ClassID { return slices.Clone(c.idx.IDs()) }

// Class returns the tracked class with the given ID, or nil.
func (c *Collector) Class(id engine.ClassID) *workload.Class {
	if slot := c.idx.Row(id); slot >= 0 {
		return c.classes[slot]
	}
	return nil
}

// Periods returns the number of schedule periods.
func (c *Collector) Periods() int { return c.nperiods }

// Agg returns the aggregate for a period and class.
func (c *Collector) Agg(period int, class engine.ClassID) *ClassAgg {
	if period < 0 || period >= c.nperiods {
		panic(fmt.Sprintf("metrics: period %d out of range", period))
	}
	agg := c.agg(period, class)
	if agg == nil {
		panic(fmt.Sprintf("metrics: unknown class %d", class))
	}
	return agg
}

// Metric returns the class's goal-metric value for a period: mean velocity
// for OLAP classes, mean response time for OLTP classes. ok is false when
// the period had nothing to measure.
//
// Terminal failures count as velocity-0 deliveries for velocity classes:
// a query that never completes violates a velocity goal maximally, so a
// class cannot "meet" its SLO by shedding queries to fault aborts.
// Response-time classes have no honest number to assign a lost query, so
// their mean stays completions-only.
func (c *Collector) Metric(period int, class engine.ClassID) (v float64, ok bool) {
	agg := c.Agg(period, class)
	if c.Class(class).Goal.Metric == workload.Velocity {
		n := agg.Completed + agg.Failed
		if n == 0 {
			return 0, false
		}
		return agg.Velocity.Sum() / float64(n), true
	}
	if agg.Completed == 0 {
		return 0, false
	}
	return agg.Resp.Mean(), true
}

// GoalMet reports whether the class met its goal in the period. Periods
// with no completions count as not measurable (false, with ok=false).
func (c *Collector) GoalMet(period int, class engine.ClassID) (met, ok bool) {
	v, ok := c.Metric(period, class)
	if !ok {
		return false, false
	}
	return c.Class(class).Goal.Met(v), true
}

// GoalSatisfaction returns, for one class, the fraction of measurable
// periods in which the goal was met.
func (c *Collector) GoalSatisfaction(class engine.ClassID) float64 {
	met, measurable := 0, 0
	for p := 0; p < c.nperiods; p++ {
		m, ok := c.GoalMet(p, class)
		if !ok {
			continue
		}
		measurable++
		if m {
			met++
		}
	}
	if measurable == 0 {
		return 0
	}
	return float64(met) / float64(measurable)
}

// RespQuantile estimates the q-quantile (q in [0,1]) of a class's
// response times within a period — 0 when nothing completed.
func (c *Collector) RespQuantile(period int, class engine.ClassID, q float64) float64 {
	return c.Agg(period, class).RespSample.Quantile(q)
}

// Pending returns how many of a class's queries submitted by the end of
// the period had not completed by then — work still queued at the
// patroller or executing in the engine. Period tables that only count
// completions undercount exactly this backlog.
func (c *Collector) Pending(period int, class engine.ClassID) int {
	if period < 0 || period >= c.nperiods {
		panic(fmt.Sprintf("metrics: period %d out of range", period))
	}
	submitted, resolved := 0, 0
	for p := 0; p <= period; p++ {
		agg := c.Agg(p, class)
		submitted += agg.Submitted
		resolved += agg.Completed + agg.Failed
	}
	if pending := submitted - resolved; pending > 0 {
		return pending
	}
	// Completions can exceed submissions in early periods when the last
	// schedule period absorbs post-horizon submits (PeriodAt clamps);
	// never report negative backlog.
	return 0
}
