// Package trace records structured events from the engine, the patroller,
// and the Query Scheduler into a bounded ring buffer — the observability
// layer for debugging controller behaviour ("why was this query held for
// four minutes?") without scattering print statements through the hot
// paths. Tracing is strictly opt-in: nothing is recorded unless a Tracer
// is attached.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
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
	// backend (1-based); Detail names both ends ("backend=F->T").
	QueryRerouted
)

func (k Kind) String() string {
	switch k {
	case QuerySubmit:
		return "submit"
	case QueryStart:
		return "start"
	case QueryDone:
		return "done"
	case QueryIntercepted:
		return "intercept"
	case QueryReleased:
		return "release"
	case PlanChanged:
		return "plan"
	case WorkloadShift:
		return "shift"
	case QueryAborted:
		return "abort"
	case QueryRetried:
		return "retry"
	case QueryRouted:
		return "route"
	case QueryRerouted:
		return "reroute"
	default:
		//lint:ignore hotalloc unreachable for the known kinds emitted on the hot path
		return fmt.Sprintf("Kind(%d)", int(k))
	}
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
	// Detail is a short human-readable annotation.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%10.2f %-9s class=%d query=%d client=%d value=%.2f %s",
		e.Time, e.Kind, e.Class, e.Query, e.Client, e.Value, e.Detail)
}

// numKinds sizes the dense per-kind counter array (kinds are small
// consecutive constants; anything else spills to farCounts).
const numKinds = int(QueryRerouted) + 1

// traceBatchSize bounds the batched-dispatch buffer: Emit appends events
// here and the JSONL encoding happens in batches — when the buffer
// fills, at clock boundaries, and before anything reads sink state.
const traceBatchSize = 256

// Tracer is a bounded in-memory event recorder. The zero value is not
// usable; construct with New.
type Tracer struct {
	cap       int
	events    []Event
	start     int // ring start index
	seq       uint64
	dropped   uint64
	counts    [numKinds]uint64
	farCounts map[Kind]uint64 // out-of-range kinds (never in normal runs)

	periodOf  func(simclock.Time) int // stamps Event.Period; may be nil
	plan      int                     // current plan version
	lastPlan  string                  // last emitted plan detail (dedup)
	sink      io.Writer               // lossless JSONL sink; may be nil
	sinkErr   error                   // first sink write error, latched
	sinkBytes int64                   // bytes written to the sink so far

	pending   []Event // events awaiting JSONL encoding (batched dispatch)
	scratch   []byte  // reused JSONL line-encoding buffer
	detailBuf []byte  // reused annotation-formatting buffer
}

// New returns a tracer retaining the most recent capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: non-positive capacity %d", capacity))
	}
	return &Tracer{cap: capacity}
}

// SetPeriodMapper installs the schedule's time→period function; every
// subsequent event is stamped with its 0-based period.
func (t *Tracer) SetPeriodMapper(f func(simclock.Time) int) { t.periodOf = f }

// Emit records an event, evicting the oldest when full. The tracer
// stamps Seq, Period (when a mapper is installed), and Plan; a
// PlanChanged event bumps the plan version before being stamped, so it
// carries the version it introduces.
//
//qlint:hotpath
func (t *Tracer) Emit(e Event) {
	t.seq++
	e.Seq = t.seq
	if t.periodOf != nil {
		e.Period = t.periodOf(e.Time)
	}
	if e.Kind == PlanChanged {
		t.plan++
	}
	e.Plan = t.plan
	if k := int(e.Kind); k >= 0 && k < numKinds {
		t.counts[k]++
	} else {
		if t.farCounts == nil {
			//lint:ignore hotalloc one-time lazy init of the far-class count map
			t.farCounts = make(map[Kind]uint64)
		}
		t.farCounts[e.Kind]++
	}
	if t.sink != nil && t.sinkErr == nil {
		t.pending = append(t.pending, e)
		if len(t.pending) >= traceBatchSize {
			t.Flush()
		}
	}
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
		return
	}
	t.events[t.start] = e
	t.start = (t.start + 1) % t.cap
	t.dropped++
}

// Flush drains the batched events to the JSONL sink, encoding each line
// into a reused scratch buffer. Lines are written one Write call at a
// time because the rotating sink relies on whole-line writes. Emit calls
// it when the batch buffer fills; SinkBytes/SinkErr (and therefore every
// checkpoint capture and end-of-run export) force it, so no reader ever
// observes sink state with events still buffered.
func (t *Tracer) Flush() {
	if len(t.pending) == 0 {
		return
	}
	if t.sink == nil || t.sinkErr != nil {
		t.pending = t.pending[:0]
		return
	}
	for i := range t.pending {
		line := appendEventLine(t.scratch[:0], &t.pending[i])
		t.scratch = line
		n, err := t.sink.Write(line)
		t.sinkBytes += int64(n)
		if err != nil {
			t.sinkErr = err
			break
		}
	}
	t.pending = t.pending[:0]
}

// Len returns the number of retained events.
func (t *Tracer) Len() int { return len(t.events) }

// Dropped returns how many events were evicted from the ring.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 { return t.seq }

// CountByKind returns cumulative event counts (including evicted ones).
func (t *Tracer) CountByKind() map[Kind]uint64 {
	out := make(map[Kind]uint64, numKinds)
	for k, v := range t.counts {
		if v > 0 {
			out[Kind(k)] = v
		}
	}
	for k, v := range t.farCounts {
		out[k] = v
	}
	return out
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.events))
	for i := 0; i < len(t.events); i++ {
		out = append(out, t.events[(t.start+i)%len(t.events)])
	}
	return out
}

// Filter returns the retained events satisfying pred, in order.
func (t *Tracer) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range t.Events() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// QueryHistory returns every retained event of one query — its lifecycle
// as seen by the tracer.
func (t *Tracer) QueryHistory(id engine.QueryID) []Event {
	return t.Filter(func(e Event) bool { return e.Query == id })
}

// WriteTo renders up to max retained events (0 = all).
func (t *Tracer) WriteTo(w io.Writer, max int) {
	events := t.Events()
	if max > 0 && len(events) > max {
		events = events[len(events)-max:]
	}
	for _, e := range events {
		fmt.Fprintln(w, e)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "(%d earlier events evicted)\n", t.dropped)
	}
}

// The detail* helpers format the per-event annotations through a reused
// scratch buffer instead of fmt: strconv.AppendFloat with the same verb
// precision produces byte-identical text, and only the final string
// conversion allocates. They render exactly "rt=%.3fs exec=%.3fs",
// "attempt=%d", and "waited=%.1fs".

//qlint:hotpath
func (t *Tracer) detailRT(rt, exec float64) string {
	b := append(t.detailBuf[:0], "rt="...)
	b = strconv.AppendFloat(b, rt, 'f', 3, 64)
	b = append(b, "s exec="...)
	b = strconv.AppendFloat(b, exec, 'f', 3, 64)
	b = append(b, 's')
	t.detailBuf = b
	return string(b)
}

//qlint:hotpath
func (t *Tracer) detailAttempt(attempt int) string {
	b := append(t.detailBuf[:0], "attempt="...)
	b = strconv.AppendInt(b, int64(attempt), 10)
	t.detailBuf = b
	return string(b)
}

//qlint:hotpath
func (t *Tracer) detailWaited(w float64) string {
	b := append(t.detailBuf[:0], "waited="...)
	b = strconv.AppendFloat(b, w, 'f', 1, 64)
	b = append(b, 's')
	t.detailBuf = b
	return string(b)
}

// AttachEngine records submit/start/done events from an engine. Start
// events fire when a query actually begins executing — immediately after
// submit for unintercepted queries, after release for held ones.
func AttachEngine(t *Tracer, eng *engine.Engine) {
	clock := eng.Clock()
	eng.OnSubmit(func(q *engine.Query) {
		t.Emit(Event{Time: clock.Now(), Kind: QuerySubmit, Class: q.Class,
			Query: q.ID, Client: q.Client, Value: q.Cost, Detail: q.Template})
	})
	eng.OnStart(func(q *engine.Query) {
		t.Emit(Event{Time: clock.Now(), Kind: QueryStart, Class: q.Class,
			Query: q.ID, Client: q.Client, Value: q.Cost, Detail: q.Template})
	})
	eng.OnDone(func(q *engine.Query) {
		if q.State != engine.StateDone {
			// Terminal failure (abort with retries exhausted, or no retry
			// handler): recorded by the abort listener, not as a
			// completion.
			return
		}
		t.Emit(Event{Time: clock.Now(), Kind: QueryDone, Class: q.Class,
			Query: q.ID, Client: q.Client, Value: q.Cost,
			Detail: t.detailRT(q.ResponseTime(), q.ExecutionTime())})
	})
	eng.OnAbort(func(q *engine.Query) {
		t.Emit(Event{Time: clock.Now(), Kind: QueryAborted, Class: q.Class,
			Query: q.ID, Client: q.Client, Value: q.Cost,
			Detail: t.detailAttempt(q.Attempt)})
	})
}

// AttachPatroller records intercept/release events, chaining any hooks
// already installed (the Query Scheduler's monitor uses the same ones).
func AttachPatroller(t *Tracer, pat *patroller.Patroller, clock *simclock.Clock) {
	prevArrival := pat.OnArrival
	pat.OnArrival = func(qi *patroller.QueryInfo) {
		if prevArrival != nil {
			prevArrival(qi)
		}
		t.Emit(Event{Time: clock.Now(), Kind: QueryIntercepted, Class: qi.Class,
			Query: qi.ID, Client: qi.Client, Value: qi.Cost, Detail: qi.Template})
	}
	prevRelease := pat.OnRelease
	pat.OnRelease = func(qi *patroller.QueryInfo) {
		if prevRelease != nil {
			prevRelease(qi)
		}
		t.Emit(Event{Time: clock.Now(), Kind: QueryReleased, Class: qi.Class,
			Query: qi.ID, Client: qi.Client, Value: qi.Cost,
			Detail: t.detailWaited(qi.WaitTime(clock.Now()))})
	}
	prevRetry := pat.OnRetry
	pat.OnRetry = func(qi *patroller.QueryInfo) {
		if prevRetry != nil {
			prevRetry(qi)
		}
		t.Emit(Event{Time: clock.Now(), Kind: QueryRetried, Class: qi.Class,
			Query: qi.ID, Client: qi.Client, Value: qi.Cost,
			Detail: t.detailAttempt(qi.Attempt)})
	}
}

// AttachRouter records one QueryRouted event per submitted query: the
// chosen backend's 1-based ID in Value, "backend=N" in Detail. The
// router fires its hook after the backend's engine assigned the query
// ID, so route events correlate with the rest of the lifecycle.
func AttachRouter(t *Tracer, r *router.Router, clock *simclock.Clock) {
	r.OnRoute(func(q *engine.Query, d router.Decision) {
		t.Emit(Event{Time: clock.Now(), Kind: QueryRouted, Class: q.Class,
			Query: q.ID, Client: q.Client, Value: float64(d.Backend),
			Detail: t.detailBackend(d.Backend)})
	})
	r.OnReroute(func(q *engine.Query, from, to int) {
		t.Emit(Event{Time: clock.Now(), Kind: QueryRerouted, Class: q.Class,
			Query: q.ID, Client: q.Client, Value: float64(to),
			Detail: t.detailReroute(from, to)})
	})
}

//qlint:hotpath
func (t *Tracer) detailBackend(b int) string {
	buf := append(t.detailBuf[:0], "backend="...)
	buf = strconv.AppendInt(buf, int64(b), 10)
	t.detailBuf = buf
	return string(buf)
}

// detailReroute renders a failover move — not hot-path: re-dispatches
// happen once per evacuated query per crash, not per submitted query.
func (t *Tracer) detailReroute(from, to int) string {
	buf := append(t.detailBuf[:0], "backend="...)
	buf = strconv.AppendInt(buf, int64(from), 10)
	buf = append(buf, "->"...)
	buf = strconv.AppendInt(buf, int64(to), 10)
	t.detailBuf = buf
	return string(buf)
}

// AttachScheduler records PlanChanged events from the Query Scheduler's
// control loop. An event is emitted only when the new plan's limits
// actually differ from the previous one, so plan-change markers mean a
// real reallocation, and the tracer's plan version counts distinct plans.
func AttachScheduler(t *Tracer, qs *core.QueryScheduler) {
	qs.OnPlan(func(rec core.PlanRecord) {
		d := formatLimits(rec.Limits)
		if d == t.lastPlan {
			return
		}
		t.lastPlan = d
		t.Emit(Event{Time: rec.Time, Kind: PlanChanged, Value: rec.Utility, Detail: d})
	})
}

// formatLimits renders a plan's cost limits in class-ID order.
func formatLimits(p solver.Plan) string {
	ids := make([]int, 0, len(p))
	for id := range p {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	var b strings.Builder
	b.WriteString("limits:")
	for _, id := range ids {
		fmt.Fprintf(&b, " %d=%.6g", id, p[engine.ClassID(id)])
	}
	return b.String()
}
