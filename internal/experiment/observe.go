// Observability wiring for experiment runs: attaches the tracer's JSONL
// sink, the obs metrics registry and the decision log to a rig,
// honouring the one-tracer/one-registry-per-run isolation the parallel
// runner depends on. The
// writers are caller-owned; export errors are collected into the result
// rather than interrupting a simulation mid-run.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/patroller"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runObs holds one run's observability attachments.
type runObs struct {
	tracer *trace.Tracer
	reg    *obs.Registry
	mw     io.Writer
	dlog   *decisionlog.Writer
}

// attachObs wires trace export, metrics and the decision log onto a rig
// whose controllers are already attached (hooks chain on top of the
// monitors'). Nil writers in cfg disable the respective output.
func attachObs(r *Rig, cfg MixedConfig) (*runObs, error) {
	o := &runObs{}
	if cfg.Trace != nil {
		tr := trace.New()
		tr.SetPeriodMapper(cfg.Sched.PeriodAt)
		meta := traceMeta(cfg, r.Classes)
		meta.Backends = backendsMeta(r)
		if err := tr.StreamJSONL(cfg.Trace, meta); err != nil {
			return nil, err
		}
		for _, b := range r.Backends {
			trace.AttachEngine(tr, b.Eng)
			trace.AttachPatroller(tr, b.Pat, r.Clock)
		}
		if r.Router != nil {
			trace.AttachRouter(tr, r.Router, r.Clock)
		}
		if !r.fleet() && r.QS != nil { // plan-change events carry no backend dimension
			trace.AttachScheduler(tr, r.QS)
		}
		o.tracer = tr
	}
	if cfg.Metrics != nil {
		reg := obs.New(func() float64 { return r.Clock.Now() })
		idx := workload.NewClassIndex(r.Classes)
		for _, b := range r.Backends {
			var labels []obs.Label
			if r.fleet() { // a backend label only where there are backends to tell apart
				labels = append(labels, obs.L("backend", b.Name()))
			}
			instrumentEngine(reg, b.Eng, &idx, labels...)
		}
		if !r.fleet() { // fault, retry and qs_* instruments carry no backend dimension
			if r.Faults != nil {
				instrumentFaults(reg, r.Faults[0])
			}
			instrumentRetries(reg, r.Pat, &idx)
			if r.QS != nil {
				r.QS.Instrument(reg)
			}
		}
		o.reg = reg
		o.mw = cfg.Metrics
	}
	if cfg.Decisions != nil {
		if r.QS == nil {
			return nil, fmt.Errorf("experiment: decision log requires a query-scheduler run")
		}
		dw, err := decisionlog.NewWriter(cfg.Decisions, decisionMeta(cfg, r))
		if err != nil {
			return nil, err
		}
		for _, b := range r.Backends {
			stream := 0
			if r.fleet() { // Record.Backend only where there are backends to tell apart
				stream = b.ID()
			}
			b.QS.OnPlan(func(rec core.PlanRecord) { dw.NoteBackend(stream, rec) })
		}
		o.dlog = dw
	}
	return o, nil
}

// sinkBytes returns the bytes the trace and the decision log have
// written (0 for a stream the run does not export). The tracer's batch
// is flushed first; the decision log's pending records are not.
func (o *runObs) sinkBytes() (trace, decisions int64) {
	if o.tracer != nil {
		trace = o.tracer.SinkBytes()
	}
	if o.dlog != nil {
		decisions = o.dlog.SinkBytes()
	}
	return trace, decisions
}

// finish flushes the metrics exposition and reports the first export
// error (trace sink or metrics write) the run hit.
func (o *runObs) finish() error {
	if o == nil {
		return nil
	}
	if o.tracer != nil {
		if err := o.tracer.SinkErr(); err != nil {
			return fmt.Errorf("experiment: trace export: %w", err)
		}
	}
	if o.dlog != nil {
		o.dlog.Flush()
		if err := o.dlog.Err(); err != nil {
			return fmt.Errorf("experiment: decision-log export: %w", err)
		}
	}
	if o.reg != nil {
		if err := o.reg.WriteText(o.mw); err != nil {
			return fmt.Errorf("experiment: metrics export: %w", err)
		}
	}
	return nil
}

// decisionMeta builds the decision log's meta line for a mixed run.
func decisionMeta(cfg MixedConfig, r *Rig) decisionlog.Meta {
	qc := r.QS.Config()
	m := decisionlog.Meta{
		Experiment:      cfg.Experiment,
		Seed:            int64(cfg.Seed),
		ControlInterval: qc.ControlInterval,
		SLOWindow:       qc.SLOWindow,
		SLOBudget:       qc.SLOBudget,
		Classes:         decisionlog.ClassesMeta(r.Classes),
		Backends:        backendsMeta(r),
	}
	if m.Experiment == "" {
		m.Experiment = cfg.Mode.String()
	}
	return m
}

// traceMeta builds the trace header for a mixed run.
func traceMeta(cfg MixedConfig, classes []*workload.Class) trace.Meta {
	m := trace.Meta{
		Experiment:    cfg.Experiment,
		Seed:          int64(cfg.Seed),
		PeriodSeconds: cfg.Sched.PeriodSeconds,
		Periods:       cfg.Sched.Periods(),
	}
	if m.Experiment == "" {
		m.Experiment = cfg.Mode.String()
	}
	for _, c := range classes {
		m.Classes = append(m.Classes, trace.ClassMeta{
			ID:     int(c.ID),
			Name:   c.Name,
			Kind:   c.Kind.String(),
			Goal:   c.Goal.String(),
			Target: c.Goal.Target,
		})
	}
	return m
}

// rowInstrument returns rows[s], registering it with mk on its first
// use: a class that never had a value stays out of the exposition.
func rowInstrument[T any](rows []*T, s int, mk func() *T) *T {
	if rows[s] == nil {
		rows[s] = mk()
	}
	return rows[s]
}

// instrumentEngine registers run-level query counters and latency
// histograms fed from the engine's lifecycle hooks, so every mode — not
// just Query Scheduler runs — produces a metrics exposition. Fleet runs
// pass an extra backend label per engine; the instruments are created
// lazily once per roster class, so the label slice is built off the hot
// path. A query of a class outside the roster is not counted, as in the
// period tables.
func instrumentEngine(reg *obs.Registry, eng *engine.Engine, idx *workload.ClassIndex, extra ...obs.Label) {
	n := idx.Len()
	submitted := make([]*obs.Counter, n)
	completed := make([]*obs.Counter, n)
	failed := make([]*obs.Counter, n)
	resp := make([]*obs.Histogram, n)
	labels := func(id engine.ClassID) []obs.Label {
		ls := append([]obs.Label{}, extra...)
		return append(ls, obs.L("class", fmt.Sprintf("%d", int(id))))
	}
	eng.OnSubmit(func(q *engine.Query) {
		s := idx.Row(q.Class)
		if s < 0 {
			return
		}
		rowInstrument(submitted, s, func() *obs.Counter {
			return reg.Counter("queries_submitted_total",
				"Queries submitted to the engine, per class.", labels(q.Class)...)
		}).Inc()
	})
	eng.OnDone(func(q *engine.Query) {
		s := idx.Row(q.Class)
		if s < 0 {
			return
		}
		if q.State != engine.StateDone {
			// Terminal failure: count separately, and keep the response
			// histogram honest (an aborted query has no response time).
			rowInstrument(failed, s, func() *obs.Counter {
				return reg.Counter("queries_failed_total",
					"Queries that ended in terminal failure (aborted, retries exhausted), per class.",
					labels(q.Class)...)
			}).Inc()
			return
		}
		rowInstrument(completed, s, func() *obs.Counter {
			return reg.Counter("queries_completed_total",
				"Queries completed by the engine, per class.", labels(q.Class)...)
		}).Inc()
		rowInstrument(resp, s, func() *obs.Histogram {
			return reg.Histogram("query_response_seconds",
				"End-to-end response time (submit to done), per class.",
				obs.DefaultDurationBuckets(), labels(q.Class)...)
		}).Observe(q.ResponseTime())
	})
}

// instrumentFaults exposes every injection as fault_injected_total{kind,
// class}.
func instrumentFaults(reg *obs.Registry, inj *fault.Injector) {
	// The class is 0 for a system-wide fault, and an abort-rate key may
	// name any class, so the counters are keyed by kind and class ID.
	type key struct {
		kind  string
		class engine.ClassID
	}
	counters := make(map[key]*obs.Counter)
	inj.OnInject(func(kind string, class engine.ClassID) {
		k := key{kind, class}
		c, ok := counters[k]
		if !ok {
			c = reg.Counter("fault_injected_total",
				"Faults injected, by kind and class (class 0 = system-wide).",
				obs.L("kind", kind), obs.L("class", fmt.Sprintf("%d", int(class))))
			counters[k] = c
		}
		c.Inc()
	})
}

// instrumentRetries exposes query_retries_total{class} through the
// patroller's retry hook. A retried query is managed, so its class is in
// the roster.
func instrumentRetries(reg *obs.Registry, pat *patroller.Patroller, idx *workload.ClassIndex) {
	counters := make([]*obs.Counter, idx.Len())
	pat.OnRetry(func(qi *patroller.QueryInfo) {
		rowInstrument(counters, idx.Row(qi.Class), func() *obs.Counter {
			return reg.Counter("query_retries_total",
				"Failed managed queries resubmitted by the retry policy, per class.",
				obs.L("class", fmt.Sprintf("%d", int(qi.Class))))
		}).Inc()
	})
}
