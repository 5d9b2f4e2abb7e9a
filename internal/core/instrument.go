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
	"repro/internal/workload"
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

// schedObs caches the scheduler's instruments per class, in slices
// indexed by the scheduler's rows, so the dispatch path does not
// re-render label sets on every decision. A class's instrument is
// registered on its first value, so a class that never had one stays
// out of the exposition.
type schedObs struct {
	reg        *obs.Registry
	idx        *workload.ClassIndex // the scheduler's rows
	oltpID     engine.ClassID       // -1 when there is no OLTP class
	releases   []*obs.Counter
	holds      []*obs.Counter
	limits     []*obs.Gauge
	predErr    []*obs.Histogram
	attainment []*obs.Gauge
	burnRate   []*obs.Gauge
	binding    []*obs.Counter
	ticks      *obs.Counter
	utility    *obs.Gauge
	held       *obs.Counter
	infeasible *obs.Counter
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
	n := qs.idx.Len()
	o := &schedObs{
		reg:        reg,
		idx:        &qs.idx,
		oltpID:     -1,
		releases:   make([]*obs.Counter, n),
		holds:      make([]*obs.Counter, n),
		limits:     make([]*obs.Gauge, n),
		predErr:    make([]*obs.Histogram, n),
		attainment: make([]*obs.Gauge, n),
		burnRate:   make([]*obs.Gauge, n),
		binding:    make([]*obs.Counter, n),
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

	// Admission wait becomes observable at release time.
	clock := qs.eng.Clock()
	waits := make([]*obs.Histogram, n)
	qs.pat.OnRelease(func(qi *patroller.QueryInfo) {
		s := qs.idx.Row(qi.Class) // a released query is managed, so it has a row
		if waits[s] == nil {
			waits[s] = reg.Histogram(MetricAdmitWait,
				"Time from interception to release, per class (seconds).",
				obs.DefaultDurationBuckets(), classLabel(qi.Class))
		}
		waits[s].Observe(qi.WaitTime(clock.Now()))
	})
}

// classLabel renders the per-class label.
func classLabel(id engine.ClassID) obs.Label {
	return obs.L("class", strconv.Itoa(int(id)))
}

// noteRelease counts one dispatcher release decision for row s.
func (o *schedObs) noteRelease(s int) {
	if o == nil {
		return
	}
	if o.releases[s] == nil {
		o.releases[s] = o.reg.Counter(MetricReleases,
			"Held queries the dispatcher released, per class.", classLabel(o.idx.IDs()[s]))
	}
	o.releases[s].Inc()
}

// noteHold counts one dispatcher keep-held decision for row s (a held
// query evaluated and left in the queue this dispatch round).
func (o *schedObs) noteHold(s int) {
	if o == nil {
		return
	}
	if o.holds[s] == nil {
		o.holds[s] = o.reg.Counter(MetricHolds,
			"Held queries the dispatcher evaluated and kept held, per class.", classLabel(o.idx.IDs()[s]))
	}
	o.holds[s].Inc()
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
	// rec.Classes and prev are plan rows: row s is the scheduler's row s.
	for s, row := range rec.Classes {
		if o.limits[s] == nil {
			o.limits[s] = o.reg.Gauge(MetricCostLimit,
				"Current class cost limit in timerons.", classLabel(row.ID))
		}
		o.limits[s].Set(row.Limit)
	}
	for s, p := range prev {
		m, _ := rec.Measurement.Class(p.ID)
		actual := m.Velocity
		if p.ID == o.oltpID {
			actual = rec.Measurement.OLTPRespTime
		}
		if o.predErr[s] == nil {
			o.predErr[s] = o.reg.Histogram(MetricPredErr,
				"Absolute error of the per-class performance prediction (velocity for OLAP, seconds for OLTP).",
				obs.DefaultErrorBuckets(), classLabel(p.ID))
		}
		o.predErr[s].Observe(math.Abs(p.Predicted - actual))
	}
	if rec.Held {
		// The degraded measurement was not folded into the SLO accounting.
		return
	}
	for s, row := range rec.Classes {
		if o.attainment[s] == nil {
			o.attainment[s] = o.reg.Gauge(MetricAttainment,
				"Fraction of measured control ticks in which the class met its goal.", classLabel(row.ID))
		}
		o.attainment[s].Set(row.Attainment)
	}
	for s, row := range rec.Classes {
		if o.burnRate[s] == nil {
			o.burnRate[s] = o.reg.Gauge(MetricBurnRate,
				"Error-budget burn rate over the sliding SLO window (1 = missing exactly at budget).",
				classLabel(row.ID))
		}
		o.burnRate[s].Set(row.BurnRate)
	}
	if rec.Infeasible {
		o.infeasible.Inc()
		s := o.idx.Row(rec.Binding)
		if o.binding[s] == nil {
			o.binding[s] = o.reg.Counter(MetricBinding,
				"Infeasible control ticks by binding class (the goal the solver could not satisfy).",
				classLabel(rec.Binding))
		}
		o.binding[s].Inc()
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
