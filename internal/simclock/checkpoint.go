// Checkpoint support: the clock's scheduling state is exportable and
// restorable so a run can be frozen at a quiescent boundary (between
// RunUntil calls, when no event at or before now remains) and resumed
// later with identical behaviour.
//
// Event callbacks are closures and cannot be serialized; instead each
// owning component records the (time, sequence, id) triple of every event
// it has pending — an EventRef — and re-arms an equivalent closure via
// RestoreEvent after Restore has reset the counters. Because both the
// sequence counter and each event's original sequence number are
// preserved, FIFO tie-breaking among simultaneous events reproduces
// exactly, and events scheduled after the restore draw the same sequence
// numbers they would have drawn in an uninterrupted run.
package simclock

import "fmt"

// EventRef identifies one scheduled event for checkpoint/restore: its
// absolute firing time, the sequence number that tie-breaks simultaneous
// events, and — for cancellable events — the id Cancel accepts. Refs are
// plain data, safe to serialize.
type EventRef struct {
	At  Time
	Seq uint64
	ID  EventID // 0 for events scheduled via At/After/AtRef
}

// State is the clock's counter state at a checkpoint boundary. It does
// not carry the pending events themselves — their callbacks are closures
// only the owning components can rebuild (see RestoreEvent).
type State struct {
	Now Time
	Seq uint64
	// NextID counts the cancellable events issued so far (the counter
	// half of an EventID). The slot table is not saved: restored events
	// re-take their own slots and free slots are handed out lowest first.
	NextID EventID
}

// State captures the clock's counters for a checkpoint.
func (c *Clock) State() State {
	return State{Now: c.now, Seq: c.seq, NextID: c.nextID}
}

// Restore resets the clock to a checkpointed state: every pending event
// is discarded (the callers re-arm theirs via RestoreEvent) and the time,
// sequence, and id counters resume exactly where the checkpointed run
// left them. Restore may rewind time; it is the one sanctioned way to do
// so.
func (c *Clock) Restore(s State) {
	for i := range c.heap {
		c.heap[i] = event{} // release closures for GC
	}
	c.heap = c.heap[:0]
	for i := range c.held {
		c.held[i] = 0
	}
	c.lowFree = 0
	c.now = s.Now
	c.seq = s.Seq
	c.nextID = s.NextID
	c.stopped = false
}

// RestoreEvent re-arms one event with its original scheduling triple, so
// the restored heap fires in exactly the checkpointed order. The ref must
// come from the same logical run: its sequence and id counter must not
// exceed the restored counters, its slot must be free, and its time must
// not lie in the past.
func (c *Clock) RestoreEvent(ref EventRef, fn EventFunc) {
	c.validate(ref.At, fn)
	if ref.Seq == 0 || ref.Seq > c.seq {
		panic(fmt.Sprintf("simclock: restored event seq %d outside issued range [1,%d]", ref.Seq, c.seq))
	}
	if ref.ID != 0 {
		if n := ref.ID >> slotBits; n == 0 || n > c.nextID {
			panic(fmt.Sprintf("simclock: restored event id %d (count %d) outside issued range [1,%d]", ref.ID, n, c.nextID))
		}
		s := int(ref.ID & slotMask)
		for len(c.slots) <= s {
			c.slots = append(c.slots, 0)
		}
		for len(c.held) <= s>>6 {
			c.held = append(c.held, 0)
		}
		if c.held[s>>6]&(1<<(s&63)) != 0 {
			panic(fmt.Sprintf("simclock: restored event id %d: slot %d already pending", ref.ID, s))
		}
		c.held[s>>6] |= 1 << (s & 63)
	}
	c.push(event{at: ref.At, seq: ref.Seq, id: ref.ID, fn: fn})
}

// AtRef schedules fn at absolute time t exactly like At, additionally
// returning the event's ref so the caller can checkpoint it. Events
// scheduled this way still cannot be cancelled.
func (c *Clock) AtRef(t Time, fn EventFunc) EventRef {
	c.validate(t, fn)
	c.seq++
	c.push(event{at: t, seq: c.seq, fn: fn})
	return EventRef{At: t, Seq: c.seq}
}

// AfterRef schedules fn d seconds from now, returning its ref.
func (c *Clock) AfterRef(d float64, fn EventFunc) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %v", d))
	}
	return c.AtRef(c.now+d, fn)
}

// Ref returns the checkpoint ref of a pending cancellable event, or
// ok=false when the id is no longer pending.
func (c *Clock) Ref(id EventID) (EventRef, bool) {
	i, ok := c.find(id)
	if !ok {
		return EventRef{}, false
	}
	e := &c.heap[i]
	return EventRef{At: e.at, Seq: e.seq, ID: e.id}, true
}

// Ref returns the ref of the ticker's pending tick, or ok=false when the
// ticker is stopped.
func (t *Ticker) Ref() (EventRef, bool) {
	if !t.active {
		return EventRef{}, false
	}
	return t.clock.Ref(t.pending)
}

// TickerState is a ticker's serializable state.
type TickerState struct {
	Active bool
	Ref    EventRef // meaningful only when Active
}

// State captures the ticker for a checkpoint. It panics when the ticker
// is active but its pending tick is not in the clock — a ticker's tick
// always reschedules itself, so at a quiescent boundary an active ticker
// always has a pending event.
func (t *Ticker) State() TickerState {
	if !t.active {
		return TickerState{}
	}
	ref, ok := t.clock.Ref(t.pending)
	if !ok {
		panic("simclock: active ticker has no pending tick")
	}
	return TickerState{Active: true, Ref: ref}
}

// Restore re-arms the ticker after Clock.Restore discarded its pending
// tick: active=false leaves it stopped; otherwise ref must be the tick
// ref the checkpoint recorded.
func (t *Ticker) Restore(ref EventRef, active bool) {
	t.active = active
	if !active {
		return
	}
	if ref.ID == 0 {
		panic("simclock: ticker restore requires a cancellable ref")
	}
	t.clock.RestoreEvent(ref, t.tick)
	t.pending = ref.ID
}
