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

// traceRingCap bounds the tracer's in-memory ring during exports. The
// JSONL sink is lossless regardless; the ring only serves interactive
// inspection.
const traceRingCap = 4096

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
		tr := trace.New(traceRingCap)
		tr.SetPeriodMapper(cfg.Sched.PeriodAt)
		meta := traceMeta(cfg, r.Classes)
		if r.fleet() { // a roster only where there are backends to tell apart
			meta.Backends = backendsMeta(r)
		}
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
		for _, b := range r.Backends {
			var labels []obs.Label
			if r.fleet() { // a backend label only where there are backends to tell apart
				labels = append(labels, obs.L("backend", b.Name()))
			}
			instrumentEngine(reg, b.Eng, r.Classes, labels...)
		}
		if !r.fleet() { // fault, retry and qs_* instruments carry no backend dimension
			if r.Faults != nil {
				instrumentFaults(reg, r.Faults[0])
			}
			instrumentRetries(reg, r.Pat)
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
	}
	if m.Experiment == "" {
		m.Experiment = cfg.Mode.String()
	}
	if r.fleet() { // a roster only where there are backends to tell apart
		for _, bm := range backendsMeta(r) {
			m.Backends = append(m.Backends, decisionlog.BackendMeta(bm))
		}
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

// classDense caches a per-class instrument in a slice indexed by
// (class - base), falling back to a lazy map for classes outside the
// span the run was configured with. The engine's lifecycle hooks fire
// once per query, so these caches are on the allocation-free hot path.
type classDense[T any] struct {
	base  engine.ClassID
	dense []*T
	far   map[engine.ClassID]*T
}

func newClassDense[T any](classes []*workload.Class) *classDense[T] {
	d := &classDense[T]{}
	if len(classes) > 0 {
		lo, hi := classes[0].ID, classes[0].ID
		for _, c := range classes {
			if c.ID < lo {
				lo = c.ID
			}
			if c.ID > hi {
				hi = c.ID
			}
		}
		d.base = lo
		d.dense = make([]*T, int(hi-lo)+1)
	}
	return d
}

// get returns the cached instrument for id, or nil if make must be called.
func (d *classDense[T]) get(id engine.ClassID, mk func() *T) *T {
	if s := int(id - d.base); s >= 0 && s < len(d.dense) {
		if d.dense[s] == nil {
			d.dense[s] = mk()
		}
		return d.dense[s]
	}
	v, ok := d.far[id]
	if !ok {
		v = mk()
		if d.far == nil {
			d.far = make(map[engine.ClassID]*T)
		}
		d.far[id] = v
	}
	return v
}

// instrumentEngine registers run-level query counters and latency
// histograms fed from the engine's lifecycle hooks, so every mode — not
// just Query Scheduler runs — produces a metrics exposition. Fleet runs
// pass an extra backend label per engine; the instruments are created
// lazily once per class, so the label slice is built off the hot path.
func instrumentEngine(reg *obs.Registry, eng *engine.Engine, classes []*workload.Class, extra ...obs.Label) {
	submitted := newClassDense[obs.Counter](classes)
	completed := newClassDense[obs.Counter](classes)
	failed := newClassDense[obs.Counter](classes)
	resp := newClassDense[obs.Histogram](classes)
	labels := func(id engine.ClassID) []obs.Label {
		ls := append([]obs.Label{}, extra...)
		return append(ls, obs.L("class", fmt.Sprintf("%d", int(id))))
	}
	eng.OnSubmit(func(q *engine.Query) {
		submitted.get(q.Class, func() *obs.Counter {
			return reg.Counter("queries_submitted_total",
				"Queries submitted to the engine, per class.", labels(q.Class)...)
		}).Inc()
	})
	eng.OnDone(func(q *engine.Query) {
		if q.State != engine.StateDone {
			// Terminal failure: count separately, and keep the response
			// histogram honest (an aborted query has no response time).
			failed.get(q.Class, func() *obs.Counter {
				return reg.Counter("queries_failed_total",
					"Queries that ended in terminal failure (aborted, retries exhausted), per class.",
					labels(q.Class)...)
			}).Inc()
			return
		}
		completed.get(q.Class, func() *obs.Counter {
			return reg.Counter("queries_completed_total",
				"Queries completed by the engine, per class.", labels(q.Class)...)
		}).Inc()
		resp.get(q.Class, func() *obs.Histogram {
			return reg.Histogram("query_response_seconds",
				"End-to-end response time (submit to done), per class.",
				obs.DefaultDurationBuckets(), labels(q.Class)...)
		}).Observe(q.ResponseTime())
	})
}

// instrumentFaults exposes every injection as fault_injected_total{kind,
// class}, chaining any OnInject observer already installed.
func instrumentFaults(reg *obs.Registry, inj *fault.Injector) {
	counters := make(map[string]*obs.Counter)
	prev := inj.OnInject
	inj.OnInject = func(kind string, class engine.ClassID) {
		if prev != nil {
			prev(kind, class)
		}
		key := fmt.Sprintf("%s/%d", kind, int(class))
		c, ok := counters[key]
		if !ok {
			c = reg.Counter("fault_injected_total",
				"Faults injected, by kind and class (class 0 = system-wide).",
				obs.L("kind", kind), obs.L("class", fmt.Sprintf("%d", int(class))))
			counters[key] = c
		}
		c.Inc()
	}
}

// instrumentRetries exposes query_retries_total{class}, chaining the
// patroller's retry hook.
func instrumentRetries(reg *obs.Registry, pat *patroller.Patroller) {
	counters := make(map[engine.ClassID]*obs.Counter)
	prev := pat.OnRetry
	pat.OnRetry = func(qi *patroller.QueryInfo) {
		if prev != nil {
			prev(qi)
		}
		c, ok := counters[qi.Class]
		if !ok {
			c = reg.Counter("query_retries_total",
				"Failed managed queries resubmitted by the retry policy, per class.",
				obs.L("class", fmt.Sprintf("%d", int(qi.Class))))
			counters[qi.Class] = c
		}
		c.Inc()
	}
}
