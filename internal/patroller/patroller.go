// Package patroller reimplements the slice of IBM DB2 Query Patroller the
// paper depends on: it intercepts queries of managed classes before
// execution, records their identification, cost, and timing while it
// manages them, blocks the agent responsible for the query, and releases it
// when told to — either by its own static policy (the paper's DB2 QP baseline)
// or by an external controller calling the unblocking API (how the Query
// Scheduler drives it).
package patroller

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// QueryState tracks an intercepted query through the patroller.
type QueryState int

// Query states.
const (
	Held QueryState = iota
	Running
	Completed
	// Failed marks a query aborted during execution. A retried query
	// gets a fresh row; the failed attempt's row ends there.
	Failed
	// Evacuated marks a query pulled off this backend by a fleet
	// failover. The query lives on — re-dispatched to a survivor, where
	// it gets a fresh row — but this backend's row is closed.
	Evacuated
)

func (s QueryState) String() string {
	switch s {
	case Held:
		return "held"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Evacuated:
		return "evacuated"
	default:
		return fmt.Sprintf("QueryState(%d)", int(s))
	}
}

// QueryInfo is one intercepted query's row: what the Monitor can learn
// about it.
type QueryInfo struct {
	ID          engine.QueryID
	Client      engine.ClientID
	Class       engine.ClassID
	Template    string
	Cost        float64 // optimizer timeron estimate
	SubmitTime  simclock.Time
	ReleaseTime simclock.Time
	DoneTime    simclock.Time
	State       QueryState
	// Attempt is 0 for the first submission, counting up per retry.
	Attempt int
}

// WaitTime returns how long the query was (or has been) blocked.
func (qi *QueryInfo) WaitTime(now simclock.Time) float64 {
	if qi.State == Held {
		return now - qi.SubmitTime
	}
	return qi.ReleaseTime - qi.SubmitTime
}

// View is the patroller state a Policy decides over.
type View struct {
	Now simclock.Time
	// Held lists blocked queries in arrival order.
	Held []*QueryInfo
	// Active lists managed queries currently executing.
	Active []*QueryInfo
}

// ActiveCost sums the timeron cost of all executing managed queries.
func (v *View) ActiveCost() float64 {
	total := 0.0
	for _, qi := range v.Active {
		total += qi.Cost
	}
	return total
}

// Policy selects which held queries to release, given the current view.
// It is invoked on every arrival and completion of a managed query (and on
// explicit Poke calls). Returning IDs not currently held is an error.
type Policy interface {
	SelectReleases(v *View) []engine.QueryID
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(v *View) []engine.QueryID

// SelectReleases implements Policy.
func (f PolicyFunc) SelectReleases(v *View) []engine.QueryID { return f(v) }

// Stats counts patroller activity.
type Stats struct {
	Intercepted uint64
	Released    uint64
	Completed   uint64
	// WaitSeconds accumulates total blocked time of released queries.
	WaitSeconds float64
	// Failed counts managed queries aborted mid-execution (fault or
	// timeout), whether or not they were retried afterwards.
	Failed uint64
	// TimedOut counts aborts issued by the patroller's own per-query
	// timeout (a subset of Failed).
	TimedOut uint64
	// Retried counts failed attempts that were re-queued.
	Retried uint64
	// Exhausted counts queries whose failure was terminal because the
	// retry budget was spent (or no retry policy was armed).
	Exhausted uint64
	// Evacuated counts queries a fleet failover pulled off this backend
	// (held, executing, or awaiting retry).
	Evacuated uint64
}

// Add folds another stats block into s — fleet runs sum their
// per-backend patrollers' counters into one run-level block.
func (s *Stats) Add(o Stats) {
	s.Intercepted += o.Intercepted
	s.Released += o.Released
	s.Completed += o.Completed
	s.WaitSeconds += o.WaitSeconds
	s.Failed += o.Failed
	s.TimedOut += o.TimedOut
	s.Retried += o.Retried
	s.Exhausted += o.Exhausted
	s.Evacuated += o.Evacuated
}

// RetryPolicy arms the patroller's per-query timeout and bounded-retry
// mitigation. Without a policy a managed query's abort is always
// terminal.
type RetryPolicy struct {
	// MaxAttempts is the total number of execution attempts a query may
	// consume (first run included); must be >= 1.
	MaxAttempts int
	// Backoff spaces retries deterministically: attempt n (1-based
	// retry count) is resubmitted Backoff*n virtual seconds after its
	// failure.
	Backoff float64
	// TimeoutFloor + TimeoutPerCost*cost is the execution budget armed
	// at release: a query still executing past it is aborted and
	// retried. TimeoutPerCost 0 disables timeouts (aborts still retry).
	// The final permitted attempt runs without a timeout so a
	// misestimated query is guaranteed to finish eventually.
	TimeoutFloor   float64
	TimeoutPerCost float64
	// RefreshCost, when set, re-estimates a failed query's timeron cost
	// before the retry is re-queued — the post-mortem re-cost that lets
	// the dispatcher admit the retry under its true footprint. Nil keeps
	// the original estimate.
	RefreshCost func(*engine.Query) float64
}

// Validate rejects a policy SetRetryPolicy would refuse: fewer than one
// attempt, or a backoff or timeout term that is negative, NaN or
// infinite (the clock cannot schedule a retry or a timeout at an
// infinite time).
func (rp RetryPolicy) Validate() error {
	if rp.MaxAttempts < 1 {
		return fmt.Errorf("patroller: retry MaxAttempts %d must be >= 1", rp.MaxAttempts)
	}
	if !finiteNonNegative(rp.Backoff) || !finiteNonNegative(rp.TimeoutFloor) || !finiteNonNegative(rp.TimeoutPerCost) {
		return fmt.Errorf("patroller: retry timing must be finite and >= 0 (backoff %v, floor %v, per-cost %v)",
			rp.Backoff, rp.TimeoutFloor, rp.TimeoutPerCost)
	}
	return nil
}

// finiteNonNegative is false for NaN, which fails every comparison.
func finiteNonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Patroller is the workload controller. Construct with New, then attach a
// Policy (or drive releases externally) and it manages every query whose
// class is in its managed set; all other queries pass straight through.
type Patroller struct {
	eng   *engine.Engine
	clock *simclock.Clock
	// managed[c] reports whether class c is intercepted; classes past
	// its end are not. Only managed queries have held or active rows,
	// so an unmanaged query's arrival and completion probe no map.
	managed []bool
	policy  Policy

	held        map[engine.QueryID]*entry
	order       []engine.QueryID // arrival order of held queries (may hold stale IDs)
	active      map[engine.QueryID]*entry
	evacuated   []QueryInfo  // rows of queries a failover pulled off this backend
	unfinished  []*QueryInfo // Unfinished's scratch; valid until the patroller next acts
	stats       Stats
	pokePending bool
	pokeFn      simclock.EventFunc // bound once; scheduling a poke allocates no closure
	freeEntries []*entry           // recycled entries
	viewScratch View               // reused per poke; valid only during SelectReleases

	retry       *RetryPolicy
	retries     map[uint64]*pendingRetry // pending resubmissions by scheduling order
	retrySeq    uint64                   // resubmissions scheduled so far
	requeueHead bool                     // next Intercept joins the queue head (retry re-queue)

	// InterceptOverheadCPU, when positive, adds this many CPU-seconds to
	// every intercepted query — the per-query cost of interception and
	// management the paper measured to be prohibitive for sub-second OLTP
	// queries. Zero by default.
	InterceptOverheadCPU float64

	// Listeners registered by OnArrival, OnRelease, OnManagedDone and
	// OnRetry, each run in registration order.
	onArrival, onRelease, onManagedDone, onRetry []func(*QueryInfo)
}

// OnArrival registers a listener called for every newly intercepted
// query once recorded; the *QueryInfo is valid only during the call.
func (p *Patroller) OnArrival(fn func(*QueryInfo)) { p.onArrival = append(p.onArrival, fn) }

// OnRelease registers a listener called when a query starts executing;
// the *QueryInfo is valid only during the call.
func (p *Patroller) OnRelease(fn func(*QueryInfo)) { p.onRelease = append(p.onRelease, fn) }

// OnManagedDone registers a listener called when a managed query
// completes; the *QueryInfo is valid only during the call.
func (p *Patroller) OnManagedDone(fn func(*QueryInfo)) {
	p.onManagedDone = append(p.onManagedDone, fn)
}

// OnRetry registers a listener called when a failed managed query is
// re-queued, with the failed attempt's row (its Attempt counts the
// attempts consumed so far, from 0), valid only during the call.
func (p *Patroller) OnRetry(fn func(*QueryInfo)) { p.onRetry = append(p.onRetry, fn) }

// entry is a managed query's whole patroller state while it is held or
// executing: its row, the query, and its armed timeout (0 when none).
type entry struct {
	info    QueryInfo
	q       *engine.Query
	timeout simclock.EventID
}

// acquireEntry pops a recycled (zeroed) entry or allocates one. Entries
// are acquired at Intercept and released at the query's terminal state.
func (p *Patroller) acquireEntry() *entry {
	if n := len(p.freeEntries); n > 0 {
		e := p.freeEntries[n-1]
		p.freeEntries[n-1] = nil
		p.freeEntries = p.freeEntries[:n-1]
		return e
	}
	//lint:ignore hotalloc pool growth: allocates only until the entry freelist reaches peak depth
	return &entry{}
}

// releaseEntry returns an entry to the freelist once its query reached a
// terminal state and it has been removed from held/active.
func (p *Patroller) releaseEntry(e *entry) {
	*e = entry{}
	p.freeEntries = append(p.freeEntries, e)
}

// pendingRetry is one scheduled resubmission of a failed query.
type pendingRetry struct {
	seq uint64
	old *engine.Query
}

// New builds a patroller on eng managing the given classes, installing
// itself as the engine's interceptor and completion listener.
func New(eng *engine.Engine, managed ...engine.ClassID) *Patroller {
	p := &Patroller{
		eng:    eng,
		clock:  eng.Clock(),
		held:   make(map[engine.QueryID]*entry),
		active: make(map[engine.QueryID]*entry),
	}
	for _, c := range managed {
		if c < 0 {
			panic(fmt.Sprintf("patroller: negative managed class %d", c))
		}
		if int(c) >= len(p.managed) {
			p.managed = append(p.managed, make([]bool, int(c)+1-len(p.managed))...)
		}
		p.managed[c] = true
	}
	eng.SetInterceptor(p)
	eng.OnDone(p.onDone)
	return p
}

// SetRetryPolicy arms timeout + bounded-retry handling for managed
// queries, claiming the engine's abort-handler slot. Passing nil disarms
// retries (aborts become terminal failures again) but keeps the handler
// so failed queries are still counted.
func (p *Patroller) SetRetryPolicy(rp *RetryPolicy) {
	if rp != nil {
		if err := rp.Validate(); err != nil {
			panic(err)
		}
		cp := *rp
		rp = &cp
	}
	p.retry = rp
	p.eng.SetAbortHandler(p.onAbort)
}

// RetryPolicy returns the armed policy (nil when retries are disarmed).
func (p *Patroller) RetryPolicy() *RetryPolicy { return p.retry }

// SetPolicy installs the release policy and immediately re-evaluates it.
func (p *Patroller) SetPolicy(pol Policy) {
	p.policy = pol
	p.Poke()
}

// Manages reports whether the patroller intercepts the class.
//
//qlint:hotpath
func (p *Patroller) Manages(c engine.ClassID) bool {
	return uint(c) < uint(len(p.managed)) && p.managed[c]
}

// Managed returns the intercepted classes in ascending order.
func (p *Patroller) Managed() []engine.ClassID {
	var out []engine.ClassID
	for c, ok := range p.managed {
		if ok {
			out = append(out, engine.ClassID(c))
		}
	}
	return out
}

// Intercept implements engine.Interceptor.
//
//qlint:hotpath
func (p *Patroller) Intercept(q *engine.Query) bool {
	if !p.Manages(q.Class) {
		return false
	}
	if p.InterceptOverheadCPU > 0 {
		q.Demand = addCPUOverhead(q.Demand, p.InterceptOverheadCPU)
	}
	e := p.acquireEntry()
	e.q = q
	e.info = QueryInfo{
		ID:         q.ID,
		Client:     q.Client,
		Class:      q.Class,
		Template:   q.Template,
		Cost:       q.Cost,
		SubmitTime: p.clock.Now(),
		State:      Held,
		Attempt:    q.Attempt,
	}
	//lint:ignore poolsafety the held table is the entry's owner; rows are deleted from it before releaseEntry recycles them
	p.held[q.ID] = e
	if p.requeueHead {
		// A retry re-queues at the head so the failed attempt's place in
		// line is not lost (head-of-line is per class, so only its own
		// class sees it first).
		//lint:ignore hotalloc retry re-queue at the head is rare and inherently builds a fresh order prefix
		p.order = append([]engine.QueryID{q.ID}, p.order...)
	} else {
		p.order = append(p.order, q.ID)
	}
	p.stats.Intercepted++
	for _, fn := range p.onArrival {
		fn(&e.info)
	}
	// Release decisions run in a fresh event so the engine's Submit call
	// finishes first (Start during Intercept would double-start).
	p.schedulePoke()
	return true
}

// addCPUOverhead grows a demand by pure CPU work, preserving its total I/O.
func addCPUOverhead(d engine.Demand, cpu float64) engine.Demand {
	cpuSec := d.CPUSeconds() + cpu
	ioSec := d.IOSeconds()
	work := d.Work + cpu // overhead is serial: it extends the critical path
	return engine.Demand{Work: work, CPURate: cpuSec / work, IORate: ioSec / work}
}

// onDone is the engine completion listener for managed queries.
//
//qlint:hotpath
func (p *Patroller) onDone(q *engine.Query) {
	if !p.Manages(q.Class) {
		return
	}
	e, ok := p.active[q.ID]
	if !ok {
		return
	}
	delete(p.active, q.ID)
	p.clock.Cancel(e.timeout) // disarm its timeout, if one is armed
	if q.State == engine.StateDone {
		e.info.State = Completed
		e.info.DoneTime = p.clock.Now()
		p.stats.Completed++
		for _, fn := range p.onManagedDone {
			fn(&e.info)
		}
	} else {
		// Terminal failure that no abort handler intercepted (retries
		// were never armed).
		p.stats.Failed++
		p.stats.Exhausted++
	}
	p.releaseEntry(e)
	p.schedulePoke()
}

// onAbort is the engine's abort-handler: it retires the failed attempt
// and, while the retry budget lasts, claims the abort and schedules a
// resubmission with deterministic backoff. Unmanaged queries and spent
// budgets return false (the abort is terminal).
//
//qlint:hotpath
func (p *Patroller) onAbort(q *engine.Query) bool {
	if !p.Manages(q.Class) {
		return false
	}
	e, ok := p.active[q.ID]
	if !ok {
		return false
	}
	delete(p.active, q.ID)
	p.clock.Cancel(e.timeout) // disarm its timeout, if one is armed
	p.stats.Failed++
	rp := p.retry
	if rp == nil || q.Attempt+1 >= rp.MaxAttempts {
		p.stats.Exhausted++
		p.releaseEntry(e)
		p.schedulePoke()
		return false
	}
	p.stats.Retried++
	e.info.State = Failed
	e.info.DoneTime = p.clock.Now()
	for _, fn := range p.onRetry {
		fn(&e.info)
	}
	delay := rp.Backoff * float64(q.Attempt+1)
	p.scheduleRetry(q, delay)
	p.releaseEntry(e)
	p.schedulePoke()
	return true
}

// scheduleRetry arms the backoff-delayed resubmission of a failed query,
// tracking it so a fleet evacuation can withdraw it.
//
//qlint:coldpath per-retry bookkeeping that runs only after an abort, off the steady-state completion path
func (p *Patroller) scheduleRetry(old *engine.Query, delay float64) {
	p.retrySeq++
	pr := &pendingRetry{seq: p.retrySeq, old: old}
	if p.retries == nil {
		p.retries = make(map[uint64]*pendingRetry)
	}
	p.retries[pr.seq] = pr
	p.clock.After(delay, func() {
		delete(p.retries, pr.seq)
		if pr.old == nil {
			return // withdrawn by a fleet evacuation; the event fires empty
		}
		p.resubmit(pr.old)
	})
}

// resubmit re-queues a failed query as a fresh submission with a bumped
// attempt counter and a refreshed cost estimate. The engine assigns a new
// query ID; monitors skip Attempt > 0 arrivals, so system-level
// accounting sees one logical query.
//
//qlint:hotpath
func (p *Patroller) resubmit(old *engine.Query) {
	cost := old.Cost
	if p.retry != nil && p.retry.RefreshCost != nil {
		cost = p.retry.RefreshCost(old)
	}
	q := p.eng.AcquireQuery()
	q.Client = old.Client
	q.Class = old.Class
	q.Template = old.Template
	q.Cost = cost
	q.Demand = old.Demand
	q.Attempt = old.Attempt + 1
	// The failed attempt was claimed at abort time and is dead now that
	// its fields are copied; hand it back to the engine's freelist.
	p.eng.Recycle(old)
	p.requeueHead = true
	p.eng.Submit(q)
	p.requeueHead = false
}

// EvacuateHeld drains every held query, in arrival order, for failover
// re-dispatch: each row closes as Evacuated and the query object is
// reclaimed to StateNew so a surviving backend's engine accepts it as a
// fresh submission. Used by the router's health model when this
// patroller's backend dies.
func (p *Patroller) EvacuateHeld() []*engine.Query {
	if len(p.held) == 0 {
		return nil
	}
	out := make([]*engine.Query, 0, len(p.held))
	for _, id := range p.order {
		e, ok := p.held[id]
		if !ok {
			continue // stale ID left behind by compaction bookkeeping
		}
		delete(p.held, id)
		q := e.q
		p.eng.Reclaim(q)
		p.closeEvacuated(e)
		out = append(out, q)
	}
	p.order = p.order[:0]
	return out
}

// EvacuateRetries withdraws every pending retry, in scheduling order,
// for failover re-dispatch. The armed backoff events stay in the clock
// but fire empty (they are not cancellable); an empty fire has no side
// effects.
func (p *Patroller) EvacuateRetries() []*engine.Query {
	if len(p.retries) == 0 {
		return nil
	}
	seqs := make([]uint64, 0, len(p.retries))
	for s := range p.retries {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	out := make([]*engine.Query, 0, len(seqs))
	for _, s := range seqs {
		pr := p.retries[s]
		delete(p.retries, s)
		q := pr.old
		pr.old = nil
		p.eng.Reclaim(q)
		p.stats.Evacuated++
		out = append(out, q)
	}
	return out
}

// ForgetActive closes the row of a query the engine evacuated out from
// under this patroller (fleet failover): the entry leaves the active set,
// its timeout disarms, and the row closes as Evacuated. Unmanaged or
// unknown IDs return false.
func (p *Patroller) ForgetActive(id engine.QueryID) bool {
	e, ok := p.active[id]
	if !ok {
		return false
	}
	delete(p.active, id)
	p.clock.Cancel(e.timeout) // disarm its timeout, if one is armed
	p.closeEvacuated(e)
	return true
}

// closeEvacuated closes an evacuated query's row, keeps it for
// Unfinished, and frees its entry.
func (p *Patroller) closeEvacuated(e *entry) {
	e.info.State = Evacuated
	e.info.DoneTime = p.clock.Now()
	p.evacuated = append(p.evacuated, e.info)
	p.stats.Evacuated++
	p.releaseEntry(e)
}

// Release unblocks one held query — the explicit operator command of the
// DB2 QP API. External controllers (the Query Scheduler's dispatcher) call
// this; policies return IDs instead.
//
//qlint:hotpath
func (p *Patroller) Release(id engine.QueryID) error {
	e, ok := p.held[id]
	if !ok {
		//lint:ignore hotalloc error construction on the invalid-release path only
		return fmt.Errorf("patroller: query %d is not held", id)
	}
	delete(p.held, id)
	e.info.State = Running
	e.info.ReleaseTime = p.clock.Now()
	p.active[id] = e
	p.stats.Released++
	p.stats.WaitSeconds += e.info.ReleaseTime - e.info.SubmitTime
	p.armTimeout(e)
	for _, fn := range p.onRelease {
		fn(&e.info)
	}
	p.eng.Start(e.q)
	return nil
}

// armTimeout schedules the per-query execution budget at release time:
// TimeoutFloor + TimeoutPerCost * cost. The last permitted attempt runs
// untimed so a query whose budget is systematically too small (cost
// misestimation) still finishes.
func (p *Patroller) armTimeout(e *entry) {
	rp := p.retry
	if rp == nil || rp.TimeoutPerCost <= 0 || e.q.Attempt+1 >= rp.MaxAttempts {
		return
	}
	d := rp.TimeoutFloor + rp.TimeoutPerCost*e.info.Cost
	e.timeout = p.clock.AfterCancellable(d, p.timeoutFn(e.q))
}

// timeoutFn builds the timeout callback for one released query.
func (p *Patroller) timeoutFn(q *engine.Query) simclock.EventFunc {
	id := q.ID
	//lint:ignore hotalloc the timeout callback must capture its query; armed once per release, cancelled on completion
	return func() {
		// The guard keeps a stale fire harmless even if the freelist
		// recycled the object into a different query (completion and
		// abort both cancel the timeout, but a same-instant race still
		// dequeues the event). IDs count per engine, so in a fleet the
		// object may even run elsewhere under the same ID: only this
		// patroller's own active row proves the query is still ours.
		if e, ok := p.active[id]; !ok || e.q != q || q.State != engine.StateExecuting {
			return
		}
		// Abort reports false when the query completes at this exact
		// instant (completion wins the tie); only a landed abort counts.
		if p.eng.Abort(q) {
			p.stats.TimedOut++
		}
	}
}

// schedulePoke coalesces policy evaluation into one zero-delay event.
func (p *Patroller) schedulePoke() {
	if p.pokePending || p.policy == nil {
		return
	}
	p.pokePending = true
	if p.pokeFn == nil {
		//lint:ignore hotalloc bound once and cached in p.pokeFn; never reallocated afterwards
		p.pokeFn = func() {
			p.pokePending = false
			p.Poke()
		}
	}
	p.clock.After(0, p.pokeFn)
}

// Poke synchronously evaluates the policy and applies its releases. It is
// a no-op without a policy.
//
//qlint:hotpath
func (p *Patroller) Poke() {
	if p.policy == nil {
		return
	}
	// Loop because releasing queries changes the view; policies that
	// return everything releasable at once converge in one round.
	for i := 0; i < maxPokeRounds; i++ {
		ids := p.policy.SelectReleases(p.view())
		if len(ids) == 0 {
			return
		}
		for _, id := range ids {
			if err := p.Release(id); err != nil {
				panic(err) // policy bug: released an unknown query
			}
		}
	}
}

const maxPokeRounds = 64

// view assembles the policy's decision input. The returned View (and its
// slices) is scratch space reused across pokes — policies must not retain
// it past SelectReleases.
func (p *Patroller) view() *View {
	v := &p.viewScratch
	v.Now = p.clock.Now()
	v.Held = v.Held[:0]
	v.Active = v.Active[:0]
	p.compactOrder()
	for _, id := range p.order {
		if e, ok := p.held[id]; ok {
			v.Held = append(v.Held, &e.info)
		}
	}
	for _, e := range p.active { //lint:ignore hotalloc,maporder active is a map by design; the view is sorted by ID below
		v.Active = append(v.Active, &e.info)
	}
	sortByID(v.Active) // map iteration is random; keep the view deterministic
	return v
}

// sortByID orders rows by query ID, which is interception order. IDs are
// unique, and an insertion sort boxes no comparator closure per poke.
func sortByID(rows []*QueryInfo) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].ID < rows[j-1].ID; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// compactOrder drops released IDs from the arrival-order list once they
// dominate it, keeping view assembly O(held).
func (p *Patroller) compactOrder() {
	if len(p.order) < 2*len(p.held)+16 {
		return
	}
	kept := p.order[:0]
	for _, id := range p.order {
		if _, ok := p.held[id]; ok {
			kept = append(kept, id)
		}
	}
	p.order = kept
}

// HeldCount returns the number of currently blocked queries.
func (p *Patroller) HeldCount() int { return len(p.held) }

// ActiveCount returns the number of managed queries executing.
func (p *Patroller) ActiveCount() int { return len(p.active) }

// ActiveCostByClass sums executing managed cost per class.
func (p *Patroller) ActiveCostByClass() map[engine.ClassID]float64 {
	m := make(map[engine.ClassID]float64)
	for _, e := range p.active {
		m[e.info.Class] += e.info.Cost
	}
	return m
}

// Unfinished returns, in interception order (ascending ID: the engine
// numbers a query right before it is intercepted), the rows of every
// query this patroller holds or runs and of every query a fleet failover
// evacuated off it, which the Query Scheduler's monitor counts as in
// flight. The slice and rows are valid only until the patroller next acts.
func (p *Patroller) Unfinished() []*QueryInfo {
	rows := p.unfinished[:0]
	for i := range p.evacuated {
		rows = append(rows, &p.evacuated[i])
	}
	for _, e := range p.held { //lint:ignore maporder sorted by ID below
		rows = append(rows, &e.info)
	}
	for _, e := range p.active { //lint:ignore maporder sorted by ID below
		rows = append(rows, &e.info)
	}
	sortByID(rows)
	p.unfinished = rows
	return rows
}

// Stats returns cumulative patroller counters.
func (p *Patroller) Stats() Stats { return p.stats }
