// Package simclock provides a deterministic discrete-event simulation
// kernel. All other packages in this repository run on virtual time
// supplied by a Clock, so a 24-hour experiment from the paper finishes in
// well under a second of wall time.
//
// Time is represented as float64 seconds from the start of the simulation.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which keeps runs fully
// deterministic.
//
// The event queue is a binary heap of event values stored inline in a
// slice: scheduling an event performs no per-event allocation (the slice
// is its own free-list — vacated slots are reused by later events), and
// the hot path runs hand-rolled sift loops instead of container/heap's
// interface dispatch. Cancellation is opt-in: only events scheduled via
// AtCancellable/AfterCancellable hold a slot in a dense table of heap
// positions, and their EventID names that slot, so Cancel, Rearm and the
// sifts index the table instead of hashing. The common never-cancelled
// event (client arrivals, schedule boundaries) holds no slot.
//
// A Clock is not safe for concurrent use. Parallel experiments must give
// every run its own Clock (see internal/experiment's isolation invariant).
package simclock

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// EventFunc is a callback invoked when an event fires. The clock's Now()
// equals the event's scheduled time during the call.
type EventFunc func()

// EventID identifies a cancellable scheduled event. The zero EventID is
// never issued and is never pending.
//
// The low slotBits bits name the slot the event holds in the clock's
// slot table; the high bits are the clock's issue counter, which makes
// every ID unique for the clock's lifetime. A stale ID whose slot a
// later event reuses therefore never matches: lookups compare the full
// stored ID.
type EventID uint64

// slotBits is the width of an EventID's slot field: at most 1<<slotBits
// cancellable events may be pending at once, and the issue counter has
// 64-slotBits bits.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
)

// event is stored by value inside the Clock's heap slice; id is 0 for
// events that cannot be cancelled (the common case).
type event struct {
	at  Time
	seq uint64
	id  EventID
	fn  EventFunc
}

// before is the deterministic firing order: earliest time first, FIFO
// (scheduling order) among ties.
func (e *event) before(o *event) bool {
	if e.at < o.at {
		return true
	}
	if o.at < e.at {
		return false
	}
	return e.seq < o.seq
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// call New.
type Clock struct {
	now  Time
	seq  uint64
	heap []event
	// nextID counts the cancellable events issued so far; it is the
	// counter half of the last EventID handed out.
	nextID EventID
	// slots[s] is the heap index of the pending cancellable event that
	// holds slot s; entries of free slots are stale. held has bit s set
	// while slot s is taken, and every word below lowFree is full. New
	// events take the lowest free slot, so which slots are held is a
	// function of the pending events alone.
	slots   []int32
	held    []uint64
	lowFree int
	stopped bool
}

// New returns a Clock positioned at time 0 with no pending events.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() Time { return c.now }

// State is the clock's counter state: the time, the sequence number the
// last scheduled event drew, and the count of cancellable events issued.
// Two runs that reach the same boundary with equal states have scheduled
// the same events.
type State struct {
	Now    Time
	Seq    uint64
	NextID EventID
}

// State returns the clock's counters.
func (c *Clock) State() State {
	return State{Now: c.now, Seq: c.seq, NextID: c.nextID}
}

// Pending reports the number of events still scheduled.
func (c *Clock) Pending() int { return len(c.heap) }

func (c *Clock) validate(t Time, fn EventFunc) {
	if fn == nil {
		panic("simclock: nil event function")
	}
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", t, c.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("simclock: invalid event time %v", t))
	}
}

// At schedules fn to run at absolute virtual time t. Events scheduled with
// At cannot be cancelled; use AtCancellable when cancellation is needed.
// Scheduling in the past panics: it would silently corrupt causality in a
// simulation.
func (c *Clock) At(t Time, fn EventFunc) {
	c.validate(t, fn)
	c.seq++
	c.push(event{at: t, seq: c.seq, fn: fn})
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (c *Clock) After(d float64, fn EventFunc) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	c.At(c.now+d, fn)
}

// AtCancellable schedules fn at absolute time t and returns an EventID
// that Cancel and Rearm accept. Cancellable events additionally hold a
// slot in the position table, so reserve this path for events that
// realistically may be cancelled (completion re-arms, ticker ticks).
//
//qlint:hotpath
func (c *Clock) AtCancellable(t Time, fn EventFunc) EventID {
	c.validate(t, fn)
	c.seq++
	id := c.issueID(c.takeSlot())
	c.push(event{at: t, seq: c.seq, id: id, fn: fn})
	return id
}

// AfterCancellable schedules fn d seconds from now, cancellably.
func (c *Clock) AfterCancellable(d float64, fn EventFunc) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.AtCancellable(c.now+d, fn)
}

// Cancel removes a scheduled cancellable event. It reports whether the
// event was still pending (false if it already fired, was previously
// cancelled, or was scheduled via the non-cancellable At/After path).
//
//qlint:hotpath
func (c *Clock) Cancel(id EventID) bool {
	i, ok := c.find(id)
	if !ok {
		return false
	}
	c.freeSlot(id)
	c.removeAt(i)
	return true
}

// Rearm moves the pending cancellable event id to fire fn d seconds from
// now and returns its new EventID; id itself stops being pending. When
// id is not pending (zero, fired or cancelled) it schedules fn exactly as
// AfterCancellable does. Either way it consumes one sequence number and
// one issue count, as Cancel followed by AfterCancellable would, so FIFO
// tie-breaking among simultaneous events is the same on both paths; the
// moved event keeps its slot and takes one sift instead of a removal and
// an insertion.
//
//qlint:hotpath
func (c *Clock) Rearm(id EventID, d float64, fn EventFunc) EventID {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	i, ok := c.find(id)
	if !ok {
		return c.AtCancellable(c.now+d, fn)
	}
	t := c.now + d
	c.validate(t, fn)
	c.seq++
	id = c.issueID(int(id & slotMask))
	e := &c.heap[i]
	e.at, e.seq, e.id, e.fn = t, c.seq, id, fn
	if !c.siftDown(i) {
		c.siftUp(i)
	}
	return id
}

// Stop makes the currently executing Run return once the in-flight event
// callback finishes. Pending events remain scheduled.
func (c *Clock) Stop() { c.stopped = true }

// Step fires the single earliest pending event, advancing the clock to its
// time. It reports whether an event fired.
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	e := c.heap[0]
	n := len(c.heap) - 1
	if n > 0 {
		c.heap[0] = c.heap[n]
		c.heap[n] = event{} // release the closure for GC
		c.heap = c.heap[:n]
		c.siftDown(0)
	} else {
		c.heap[0] = event{}
		c.heap = c.heap[:0]
	}
	if e.id != 0 {
		c.freeSlot(e.id)
	}
	c.now = e.at
	e.fn()
	return true
}

// Run fires events in order until no events remain or Stop is called.
func (c *Clock) Run() {
	c.stopped = false
	for !c.stopped && c.Step() {
	}
}

// RunUntil fires events with scheduled time <= deadline, then advances the
// clock to exactly deadline. Events after the deadline stay pending.
func (c *Clock) RunUntil(deadline Time) {
	if deadline < c.now {
		panic(fmt.Sprintf("simclock: RunUntil deadline %v before now %v", deadline, c.now))
	}
	c.stopped = false
	for !c.stopped {
		if len(c.heap) == 0 || c.heap[0].at > deadline {
			break
		}
		c.Step()
	}
	if !c.stopped && c.now < deadline {
		c.now = deadline
	}
}

// NextEventTime returns the time of the earliest pending event and true, or
// 0 and false when nothing is scheduled.
func (c *Clock) NextEventTime() (Time, bool) {
	if len(c.heap) == 0 {
		return 0, false
	}
	return c.heap[0].at, true
}

// --- slot table ---

// find returns the heap index of the pending event id. A slot's table
// entry is stale once the slot is free, so the full stored ID decides.
func (c *Clock) find(id EventID) (int, bool) {
	s := id & slotMask
	if id == 0 || int(s) >= len(c.slots) {
		return 0, false
	}
	i := int(c.slots[s])
	if i >= len(c.heap) || c.heap[i].id != id {
		return 0, false
	}
	return i, true
}

// issueID counts one more cancellable event and names it with slot s.
func (c *Clock) issueID(s int) EventID {
	c.nextID++
	if c.nextID >= 1<<(64-slotBits) {
		panic("simclock: cancellable event counter exhausted")
	}
	return c.nextID<<slotBits | EventID(s)
}

// takeSlot claims the lowest free slot, growing the table by one slot
// when every slot is held.
func (c *Clock) takeSlot() int {
	w := c.lowFree
	for w < len(c.held) && c.held[w] == math.MaxUint64 {
		w++
	}
	if w == len(c.held) {
		c.held = append(c.held, 0)
	}
	c.lowFree = w
	b := bits.TrailingZeros64(^c.held[w])
	c.held[w] |= 1 << b
	s := w<<6 | b
	if s > slotMask {
		panic(fmt.Sprintf("simclock: more than %d cancellable events pending", slotMask+1))
	}
	if s == len(c.slots) {
		c.slots = append(c.slots, 0)
	}
	return s
}

// freeSlot releases the slot id holds.
func (c *Clock) freeSlot(id EventID) {
	s := int(id & slotMask)
	w := s >> 6
	c.held[w] &^= 1 << (s & 63)
	if w < c.lowFree {
		c.lowFree = w
	}
}

// --- heap internals (hand-rolled: no container/heap interface dispatch,
// hole-based sifting writes each element once, and the slot table is
// only touched for cancellable events) ---

func (c *Clock) push(e event) {
	c.heap = append(c.heap, e)
	c.siftUp(len(c.heap) - 1)
}

func (c *Clock) siftUp(i int) {
	h := c.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		if h[i].id != 0 {
			c.slots[h[i].id&slotMask] = int32(i)
		}
		i = p
	}
	h[i] = e
	if e.id != 0 {
		c.slots[e.id&slotMask] = int32(i)
	}
}

// siftDown restores heap order below i; it reports whether the element
// moved (used by removeAt to decide whether siftUp is still needed).
func (c *Clock) siftDown(i int) bool {
	h := c.heap
	n := len(h)
	e := h[i]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		if h[i].id != 0 {
			c.slots[h[i].id&slotMask] = int32(i)
		}
		i = m
	}
	h[i] = e
	if e.id != 0 {
		c.slots[e.id&slotMask] = int32(i)
	}
	return i != start
}

// removeAt deletes the event at heap index i (used only by Cancel).
func (c *Clock) removeAt(i int) {
	n := len(c.heap) - 1
	if i != n {
		c.heap[i] = c.heap[n]
		c.heap[n] = event{}
		c.heap = c.heap[:n]
		if !c.siftDown(i) {
			c.siftUp(i)
		}
	} else {
		c.heap[n] = event{}
		c.heap = c.heap[:n]
	}
}

// Ticker invokes fn every interval seconds, starting one interval from the
// time StartTicker is called, until the returned stop function is invoked.
type Ticker struct {
	clock    *Clock
	interval float64
	fn       EventFunc
	tick     EventFunc // built once; rescheduling allocates no closures
	pending  EventID
	active   bool
}

// StartTicker schedules fn to run every interval seconds. The interval must
// be positive.
func (c *Clock) StartTicker(interval float64, fn EventFunc) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("simclock: non-positive ticker interval %v", interval))
	}
	t := &Ticker{clock: c, interval: interval, fn: fn, active: true}
	t.tick = func() {
		if !t.active {
			return
		}
		t.fn()
		if t.active {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.pending = t.clock.AfterCancellable(t.interval, t.tick)
}

// Stop cancels future ticks. It is safe to call from within the tick
// callback and safe to call more than once.
func (t *Ticker) Stop() {
	if !t.active {
		return
	}
	t.active = false
	t.clock.Cancel(t.pending)
}

// Start re-arms a stopped ticker: the next tick fires one interval from
// now. Starting an active ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.schedule()
}
