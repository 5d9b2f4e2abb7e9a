// Package trace records structured events from the engine, the
// patroller, the router and the Query Scheduler and streams them, one
// JSONL line each, to a sink — the observability layer for debugging
// controller behaviour ("why was this query held for four minutes?")
// without scattering print statements through the hot paths. Events
// are batched and encoded at flush time, numbers and all, so a traced
// query costs about what its bytes cost. Tracing is strictly opt-in:
// nothing is recorded unless a Tracer is attached.
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/router"
	"repro/internal/simclock"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	QuerySubmit Kind = iota
	QueryStart
	QueryDone
	QueryIntercepted
	QueryReleased
	PlanChanged
	WorkloadShift
	QueryAborted
	QueryRetried
	// QueryRouted is a fleet routing decision: one per submitted query,
	// with the chosen backend (1-based) in Value. Single-backend runs
	// never emit it, keeping their exports byte-identical.
	QueryRouted
	// QueryRerouted is a failover re-dispatch: a query evacuated from a
	// crashed backend landing on a survivor. Value carries the new
	// backend (1-based); its detail names both ends ("backend=F->T").
	QueryRerouted
)

// kindNames are the kinds' names in the JSONL format.
var kindNames = [numKinds]string{"submit", "start", "done", "intercept",
	"release", "plan", "shift", "abort", "retry", "route", "reroute"}

func (k Kind) String() string {
	if k >= 0 && int(k) < numKinds {
		return kindNames[k]
	}
	//lint:ignore hotalloc unreachable for the known kinds emitted on the hot path
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	Seq    uint64
	Time   simclock.Time
	Kind   Kind
	Class  engine.ClassID
	Query  engine.QueryID
	Client engine.ClientID
	// Period is the 0-based schedule period the event falls in, stamped
	// by the tracer's period mapper (0 when no mapper is installed).
	// Report tables number the same periods 1-based.
	Period int
	// Plan is the scheduling-plan version in force when the event was
	// emitted: 0 until the first PlanChanged event, then incremented by
	// each one.
	Plan int
	// Value carries the kind-specific number: query cost for lifecycle
	// events, total plan utility for PlanChanged, signal value for
	// WorkloadShift.
	Value float64
	// Detail is a short human-readable annotation: the template of a
	// submit, start or intercept event and the limits of a plan change.
	// An event read back from a file carries every annotation here, as
	// written. A non-empty Detail is written verbatim.
	Detail string
	// Num holds the numbers of an annotation the encoder formats when
	// the line is written, for an event whose Detail is empty:
	//
	//	done          rt=Num[0]s exec=Num[1]s  (%.3f each)
	//	release       waited=Num[0]s           (%.1f)
	//	abort, retry  attempt=Num[0]
	//	route         backend=Num[0]
	//	reroute       backend=Num[0]->Num[1]
	Num [2]float64
}

// numKinds sizes the per-kind name tables: kinds are small consecutive
// constants.
const numKinds = int(QueryRerouted) + 1

// traceBatchSize bounds the batched-dispatch buffer: Emit appends events
// here and the JSONL encoding happens in batches — when the buffer
// fills, at clock boundaries, and before anything reads sink state.
const traceBatchSize = 256

// Tracer numbers events and streams them to a JSONL sink. It keeps no
// events itself: what a run emitted is read back from the sink.
type Tracer struct {
	seq uint64

	periodOf  func(simclock.Time) int // stamps Event.Period; may be nil
	plan      int                     // current plan version
	lastPlan  string                  // last emitted plan detail (dedup)
	sink      io.Writer               // lossless JSONL sink; may be nil
	sinkErr   error                   // first sink write error, latched
	sinkBytes int64                   // bytes written to the sink so far

	pending []Event     // events awaiting JSONL encoding (batched dispatch)
	enc     lineEncoder // encodes a flushed batch into one buffer
}

// New returns a tracer with no sink attached.
func New() *Tracer { return &Tracer{} }

// SetPeriodMapper installs the schedule's time→period function; every
// subsequent event is stamped with its 0-based period.
func (t *Tracer) SetPeriodMapper(f func(simclock.Time) int) { t.periodOf = f }

// Emit records an event, whose Kind must be one of the Kind constants.
// The tracer stamps Seq, Period (when a mapper is installed), and Plan;
// a PlanChanged event bumps the plan version before being stamped, so
// it carries the version it introduces.
//
//qlint:hotpath
func (t *Tracer) Emit(e Event) {
	t.emit(e.Kind, e.Class, e.Query, e.Client, e.Time, e.Value, e.Detail, e.Num[0], e.Num[1])
}

// emit is Emit with the event's fields as arguments, which the register
// ABI passes without building or copying an Event; the hooks call it
// directly. It fills the next batch slot field by field.
//
//qlint:hotpath
func (t *Tracer) emit(kind Kind, class engine.ClassID, query engine.QueryID, client engine.ClientID,
	at simclock.Time, value float64, detail string, n0, n1 float64) {
	t.seq++
	if kind == PlanChanged {
		t.plan++
	}
	if t.sink == nil || t.sinkErr != nil {
		return
	}
	period := 0
	if t.periodOf != nil {
		period = t.periodOf(at)
	}
	n := len(t.pending)
	t.pending = t.pending[:n+1]
	e := &t.pending[n]
	e.Seq, e.Time, e.Kind = t.seq, at, kind
	e.Class, e.Query, e.Client = class, query, client
	e.Period, e.Plan = period, t.plan
	e.Value, e.Detail, e.Num = value, detail, [2]float64{n0, n1}
	if n+1 == traceBatchSize {
		t.Flush()
	}
}

// Flush encodes the batched events into one reused buffer and hands it
// to the sink in a single Write (a rotating Sink splits it at line
// boundaries itself). Emit calls it when the batch buffer fills;
// SinkBytes/SinkErr (and therefore every checkpoint capture and
// end-of-run export) force it, so no reader ever observes sink state
// with events still buffered.
//
//qlint:hotpath
func (t *Tracer) Flush() {
	if len(t.pending) == 0 {
		return // Emit batches only while the sink is attached and healthy
	}
	t.enc.buf = t.enc.appendBatch(t.enc.buf[:0], t.pending)
	n, err := t.sink.Write(t.enc.buf)
	t.sinkBytes += int64(n)
	t.sinkErr = err
	t.pending = t.pending[:0]
}

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 { return t.seq }

// AttachEngine records submit/start/done events from an engine. Start
// events fire when a query actually begins executing — immediately after
// submit for unintercepted queries, after release for held ones.
func AttachEngine(t *Tracer, eng *engine.Engine) {
	clock := eng.Clock()
	eng.OnSubmit(func(q *engine.Query) {
		t.emit(QuerySubmit, q.Class, q.ID, q.Client, clock.Now(), q.Cost, q.Template, 0, 0)
	})
	eng.OnStart(func(q *engine.Query) {
		t.emit(QueryStart, q.Class, q.ID, q.Client, clock.Now(), q.Cost, q.Template, 0, 0)
	})
	eng.OnDone(func(q *engine.Query) {
		if q.State != engine.StateDone {
			// Terminal failure (abort with retries exhausted, or no retry
			// handler): recorded by the abort listener, not as a
			// completion.
			return
		}
		t.emit(QueryDone, q.Class, q.ID, q.Client, clock.Now(), q.Cost, "",
			q.ResponseTime(), q.ExecutionTime())
	})
	eng.OnAbort(func(q *engine.Query) {
		t.emit(QueryAborted, q.Class, q.ID, q.Client, clock.Now(), q.Cost, "", float64(q.Attempt), 0)
	})
}

// AttachPatroller records intercept/release/retry events, after any
// listeners already registered (the Query Scheduler's monitor uses the
// same hooks).
func AttachPatroller(t *Tracer, pat *patroller.Patroller, clock *simclock.Clock) {
	pat.OnArrival(func(qi *patroller.QueryInfo) {
		t.emit(QueryIntercepted, qi.Class, qi.ID, qi.Client, clock.Now(), qi.Cost, qi.Template, 0, 0)
	})
	pat.OnRelease(func(qi *patroller.QueryInfo) {
		now := clock.Now()
		t.emit(QueryReleased, qi.Class, qi.ID, qi.Client, now, qi.Cost, "", qi.WaitTime(now), 0)
	})
	pat.OnRetry(func(qi *patroller.QueryInfo) {
		t.emit(QueryRetried, qi.Class, qi.ID, qi.Client, clock.Now(), qi.Cost, "", float64(qi.Attempt), 0)
	})
}

// AttachRouter records one QueryRouted event per submitted query, with
// the chosen backend's 1-based ID in Value and "backend=N" as its
// detail, and one QueryRerouted event per failover re-dispatch. The
// router fires its hook after the backend's engine assigned the query
// ID, so route events correlate with the rest of the lifecycle.
func AttachRouter(t *Tracer, r *router.Router, clock *simclock.Clock) {
	r.OnRoute(func(q *engine.Query, d router.Decision) { t.route(clock.Now(), q, d.Backend) })
	r.OnReroute(func(q *engine.Query, from, to int) {
		t.emit(QueryRerouted, q.Class, q.ID, q.Client, clock.Now(), float64(to), "",
			float64(from), float64(to))
	})
}

// route emits one routing decision: once per submitted query of a
// fleet run.
//
//qlint:hotpath
func (t *Tracer) route(at simclock.Time, q *engine.Query, backend int) {
	b := float64(backend)
	t.emit(QueryRouted, q.Class, q.ID, q.Client, at, b, "", b, 0)
}

// AttachScheduler records PlanChanged events from the Query Scheduler's
// control loop. An event is emitted only when the new plan's limits
// actually differ from the previous one, so plan-change markers mean a
// real reallocation, and the tracer's plan version counts distinct plans.
func AttachScheduler(t *Tracer, qs *core.QueryScheduler) {
	qs.OnPlan(func(rec core.PlanRecord) {
		d := formatLimits(rec.Classes)
		if d == t.lastPlan {
			return
		}
		t.lastPlan = d
		t.emit(PlanChanged, 0, 0, 0, rec.Time, rec.Utility, d, 0, 0)
	})
}

// formatLimits renders a plan's cost limits in class-ID order (the
// rows' order).
func formatLimits(rows []core.ClassPlan) string {
	var b strings.Builder
	b.WriteString("limits:")
	for _, r := range rows {
		fmt.Fprintf(&b, " %d=%.6g", r.ID, r.Limit)
	}
	return b.String()
}
