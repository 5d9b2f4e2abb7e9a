// Metrics instrumentation for the Query Scheduler: dispatcher
// hold/release counters, cost-limit gauges, admission-wait histograms,
// and the perf models' predicted-vs-actual error — the controller-quality
// observables. All instruments live in a caller-owned obs.Registry, so
// the parallel runner's one-registry-per-run isolation holds. Every
// method on schedObs is nil-receiver safe: an uninstrumented scheduler
// pays one pointer test per call site and nothing else.
package core

import (
	"math"
	"strconv"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/patroller"
)

// Metric names exported by the scheduler.
const (
	MetricReleases  = "qs_dispatch_releases_total"
	MetricHolds     = "qs_dispatch_holds_total"
	MetricCostLimit = "qs_cost_limit_timerons"
	MetricTicks     = "qs_control_ticks_total"
	MetricUtility   = "qs_plan_utility"
	MetricPredErr   = "qs_prediction_abs_error"
	MetricAdmitWait = "qs_admission_wait_seconds"
	MetricPlanHeld  = "qs_plan_held_total"
	// SLO attainment accounting and the plan's infeasibility signal.
	MetricAttainment = "qs_slo_attainment_ratio"
	MetricBurnRate   = "qs_slo_burn_rate"
	MetricInfeasible = "qs_infeasible_ticks_total"
	MetricBinding    = "qs_infeasible_binding_total"
)

// schedObs caches the scheduler's instruments per class so the dispatch
// path does not re-render label sets on every decision. The release/hold
// counters — touched once per held-queue evaluation — live in dense
// slices indexed by (class - base); classes outside the span (a custom
// classifier inventing ids) fall back to lazy maps.
type schedObs struct {
	reg         *obs.Registry
	oltpID      engine.ClassID // -1 when there is no OLTP class
	base        engine.ClassID
	releases    []*obs.Counter
	holds       []*obs.Counter
	farReleases map[engine.ClassID]*obs.Counter
	farHolds    map[engine.ClassID]*obs.Counter
	limits      map[engine.ClassID]*obs.Gauge
	predErr     map[engine.ClassID]*obs.Histogram
	attainment  map[engine.ClassID]*obs.Gauge
	burnRate    map[engine.ClassID]*obs.Gauge
	binding     map[engine.ClassID]*obs.Counter
	ticks       *obs.Counter
	utility     *obs.Gauge
	held        *obs.Counter
	infeasible  *obs.Counter
}

// Instrument registers the scheduler's observables in reg and begins
// updating them: release/hold counters per dispatch decision, cost-limit
// gauges and prediction-error histograms per control tick, and an
// admission-wait histogram fed from the patroller's release hook. Call
// before Start, at most once.
func (qs *QueryScheduler) Instrument(reg *obs.Registry) {
	if reg == nil {
		panic("core: nil registry")
	}
	if qs.instr != nil {
		panic("core: scheduler already instrumented")
	}
	o := &schedObs{
		reg:        reg,
		oltpID:     -1,
		base:       qs.rowBase,
		releases:   make([]*obs.Counter, len(qs.rowOf)),
		holds:      make([]*obs.Counter, len(qs.rowOf)),
		limits:     make(map[engine.ClassID]*obs.Gauge),
		predErr:    make(map[engine.ClassID]*obs.Histogram),
		attainment: make(map[engine.ClassID]*obs.Gauge),
		burnRate:   make(map[engine.ClassID]*obs.Gauge),
		binding:    make(map[engine.ClassID]*obs.Counter),
	}
	if qs.oltpClass != nil {
		o.oltpID = qs.oltpClass.ID
	}
	o.ticks = reg.Counter(MetricTicks, "Control-loop ticks executed.")
	o.utility = reg.Gauge(MetricUtility, "Total utility of the current scheduling plan.")
	// Registered eagerly so a zero-fault run still exposes the series.
	o.held = reg.Counter(MetricPlanHeld,
		"Control ticks that held the previous plan because the harvest was fault-dropped.")
	// Likewise eager: a run whose goals were always satisfiable must
	// still expose the zero-valued infeasibility signal.
	o.infeasible = reg.Counter(MetricInfeasible,
		"Control ticks where the solver found no plan meeting all class goals.")
	qs.instr = o

	// Admission wait becomes observable at release time; chain the
	// patroller hook the same way the monitor and tracer do.
	clock := qs.eng.Clock()
	waits := make(map[engine.ClassID]*obs.Histogram)
	prev := qs.pat.OnRelease
	qs.pat.OnRelease = func(qi *patroller.QueryInfo) {
		if prev != nil {
			prev(qi)
		}
		h, ok := waits[qi.Class]
		if !ok {
			h = reg.Histogram(MetricAdmitWait,
				"Time from interception to release, per class (seconds).",
				obs.DefaultDurationBuckets(), classLabel(qi.Class))
			waits[qi.Class] = h
		}
		h.Observe(qi.WaitTime(clock.Now()))
	}
}

// classLabel renders the per-class label.
func classLabel(id engine.ClassID) obs.Label {
	return obs.L("class", strconv.Itoa(int(id)))
}

// noteRelease counts one dispatcher release decision.
func (o *schedObs) noteRelease(class engine.ClassID) {
	if o == nil {
		return
	}
	if s := int(class - o.base); s >= 0 && s < len(o.releases) {
		c := o.releases[s]
		if c == nil {
			c = o.reg.Counter(MetricReleases,
				"Held queries the dispatcher released, per class.", classLabel(class))
			o.releases[s] = c
		}
		c.Inc()
		return
	}
	c, ok := o.farReleases[class]
	if !ok {
		c = o.reg.Counter(MetricReleases,
			"Held queries the dispatcher released, per class.", classLabel(class))
		if o.farReleases == nil {
			//lint:ignore hotalloc one-time lazy init of the far-class spill map
			o.farReleases = make(map[engine.ClassID]*obs.Counter)
		}
		o.farReleases[class] = c
	}
	c.Inc()
}

// noteHold counts one dispatcher keep-held decision (a held query
// evaluated and left in the queue this dispatch round).
func (o *schedObs) noteHold(class engine.ClassID) {
	if o == nil {
		return
	}
	if s := int(class - o.base); s >= 0 && s < len(o.holds) {
		c := o.holds[s]
		if c == nil {
			c = o.reg.Counter(MetricHolds,
				"Held queries the dispatcher evaluated and kept held, per class.", classLabel(class))
			o.holds[s] = c
		}
		c.Inc()
		return
	}
	c, ok := o.farHolds[class]
	if !ok {
		c = o.reg.Counter(MetricHolds,
			"Held queries the dispatcher evaluated and kept held, per class.", classLabel(class))
		if o.farHolds == nil {
			//lint:ignore hotalloc one-time lazy init of the far-class spill map
			o.farHolds = make(map[engine.ClassID]*obs.Counter)
		}
		o.farHolds[class] = c
	}
	c.Inc()
}

// noteTick records one control interval: the new plan's limits and
// utility, plus the previous tick's prediction error now that the
// interval it forecast has been measured. prev is the previous record's
// rows, nil when there was none or it was held (no prediction was made).
func (o *schedObs) noteTick(rec PlanRecord, prev []ClassPlan) {
	if o == nil {
		return
	}
	o.ticks.Inc()
	if !rec.Held {
		o.utility.Set(rec.Utility)
	}
	for _, row := range rec.Classes {
		g, ok := o.limits[row.ID]
		if !ok {
			g = o.reg.Gauge(MetricCostLimit,
				"Current class cost limit in timerons.", classLabel(row.ID))
			o.limits[row.ID] = g
		}
		g.Set(row.Limit)
	}
	for _, p := range prev {
		m, _ := rec.Measurement.Class(p.ID)
		actual := m.Velocity
		if p.ID == o.oltpID {
			actual = rec.Measurement.OLTPRespTime
		}
		h, ok := o.predErr[p.ID]
		if !ok {
			h = o.reg.Histogram(MetricPredErr,
				"Absolute error of the per-class performance prediction (velocity for OLAP, seconds for OLTP).",
				obs.DefaultErrorBuckets(), classLabel(p.ID))
			o.predErr[p.ID] = h
		}
		h.Observe(math.Abs(p.Predicted - actual))
	}
	if rec.Held {
		// The degraded measurement was not folded into the SLO accounting.
		return
	}
	for _, row := range rec.Classes {
		g, ok := o.attainment[row.ID]
		if !ok {
			g = o.reg.Gauge(MetricAttainment,
				"Fraction of measured control ticks in which the class met its goal.", classLabel(row.ID))
			o.attainment[row.ID] = g
		}
		g.Set(row.Attainment)
	}
	for _, row := range rec.Classes {
		g, ok := o.burnRate[row.ID]
		if !ok {
			g = o.reg.Gauge(MetricBurnRate,
				"Error-budget burn rate over the sliding SLO window (1 = missing exactly at budget).",
				classLabel(row.ID))
			o.burnRate[row.ID] = g
		}
		g.Set(row.BurnRate)
	}
	if rec.Infeasible {
		o.infeasible.Inc()
		c, ok := o.binding[rec.Binding]
		if !ok {
			c = o.reg.Counter(MetricBinding,
				"Infeasible control ticks by binding class (the goal the solver could not satisfy).",
				classLabel(rec.Binding))
			o.binding[rec.Binding] = c
		}
		c.Inc()
	}
}

// notePlanHeld counts one degraded control tick (plan held, models not
// updated).
func (o *schedObs) notePlanHeld() {
	if o == nil {
		return
	}
	o.held.Inc()
}
