package simclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// churnOp is one step of a seeded random op stream. pick selects among
// the cancellable IDs issued so far, pending or stale; delay is coarse so
// that simultaneous events exercise FIFO tie-breaking.
type churnOp struct {
	kind  int
	pick  float64
	delay float64
}

func churnOps(seed int64, n int) []churnOp {
	rnd := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, n)
	for i := range ops {
		ops[i] = churnOp{kind: rnd.Intn(6), pick: rnd.Float64(), delay: float64(rnd.Intn(4)) / 2}
	}
	return ops
}

// churn drives a clock through an op stream and logs what it observes.
// With rearm set it moves events with Rearm, otherwise with Cancel and
// AfterCancellable; with logIDs set the log also records every issued ID.
type churn struct {
	c      *Clock
	rearm  bool
	logIDs bool
	ids    []EventID       // every cancellable ID handed out, pending or stale
	tagOf  map[EventID]int // the tag of each issued cancellable event
	tag    int
	log    []string
}

func newChurn(c *Clock, rearm, logIDs bool) *churn {
	return &churn{c: c, rearm: rearm, logIDs: logIDs, tagOf: map[EventID]int{}}
}

func (d *churn) fire(tag int) EventFunc {
	return func() {
		d.log = append(d.log, fmt.Sprintf("fire %d at %v", tag, d.c.Now()))
	}
}

// armed logs a freshly scheduled or moved cancellable event by its
// firing key (time, seq), and by its ID when asked to.
func (d *churn) armed(what string, id EventID) {
	d.tagOf[id] = d.tag
	ref, ok := refOf(d.c, id)
	if !ok {
		panic("churn: armed event not pending")
	}
	entry := fmt.Sprintf("%s %d at %v seq %d", what, d.tag, ref.At, ref.Seq)
	if d.logIDs {
		entry += fmt.Sprintf(" id %d", id)
	}
	d.log = append(d.log, entry)
}

func (d *churn) apply(op churnOp) {
	d.tag++
	var pick EventID
	k := -1
	if len(d.ids) > 0 {
		k = int(op.pick * float64(len(d.ids)))
		pick = d.ids[k]
	}
	switch op.kind {
	case 0:
		d.c.After(op.delay, d.fire(d.tag))
	case 1, 2:
		id := d.c.AfterCancellable(op.delay, d.fire(d.tag))
		d.ids = append(d.ids, id)
		d.armed("arm", id)
	case 3:
		d.log = append(d.log, fmt.Sprintf("cancel %d: %v", d.tagOf[pick], d.c.Cancel(pick)))
	case 4:
		var id EventID
		if d.rearm {
			id = d.c.Rearm(pick, op.delay, d.fire(d.tag))
		} else {
			d.c.Cancel(pick)
			id = d.c.AfterCancellable(op.delay, d.fire(d.tag))
		}
		if k >= 0 {
			d.ids[k] = id
		} else {
			d.ids = append(d.ids, id)
		}
		d.armed("rearm", id)
	case 5:
		d.c.Step()
	}
}

// pendingRef is the firing key of a pending event.
type pendingRef struct {
	At  Time
	Seq uint64
}

// refOf returns the firing key of the pending cancellable event id, or
// ok=false when the id is no longer pending.
func refOf(c *Clock, id EventID) (pendingRef, bool) {
	i, ok := c.find(id)
	if !ok {
		return pendingRef{}, false
	}
	return pendingRef{At: c.heap[i].at, Seq: c.heap[i].seq}, true
}

// Rearm is Cancel + AfterCancellable in one sift: over a random op
// stream both paths must schedule every event at the same (time, seq)
// and fire them in the same order.
func TestRearmMatchesCancelAndReschedule(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := churnOps(seed, 3000)
		moved := newChurn(New(), true, false)
		replaced := newChurn(New(), false, false)
		for _, op := range ops {
			moved.apply(op)
			replaced.apply(op)
		}
		moved.c.Run()
		replaced.c.Run()
		if !reflect.DeepEqual(moved.log, replaced.log) {
			for i := range moved.log {
				if i >= len(replaced.log) || moved.log[i] != replaced.log[i] {
					t.Fatalf("seed %d: logs diverge at entry %d: Rearm %q, Cancel+AfterCancellable %q", seed, i, moved.log[i], replaced.log[i])
				}
			}
			t.Fatalf("seed %d: Cancel+AfterCancellable logged %d entries, Rearm %d", seed, len(replaced.log), len(moved.log))
		}
		if moved.c.State() != replaced.c.State() {
			t.Fatalf("seed %d: counters differ: Rearm %+v, Cancel+AfterCancellable %+v", seed, moved.c.State(), replaced.c.State())
		}
	}
}

// An ID that fired or was cancelled stays dead after a new event reuses
// its slot: Cancel, find and Rearm must not reach the new occupant.
func TestStaleIDNeverMatchesReusedSlot(t *testing.T) {
	c := New()
	fired := c.AtCancellable(1, func() {})
	c.Step()
	cancelled := c.AtCancellable(2, func() {})
	if !c.Cancel(cancelled) {
		t.Fatal("cancel of a pending event refused")
	}
	live := c.AtCancellable(3, func() {})
	for _, stale := range []EventID{fired, cancelled} {
		if stale&slotMask != live&slotMask {
			t.Fatalf("stale id %#x and live id %#x hold different slots; the test needs a reused slot", stale, live)
		}
		if c.Cancel(stale) {
			t.Fatalf("Cancel(%#x) accepted a stale id", stale)
		}
		if _, ok := refOf(c, stale); ok {
			t.Fatalf("find(%#x) found a stale id", stale)
		}
	}
	// Rearm of a stale ID schedules afresh and leaves the occupant alone.
	fresh := c.Rearm(fired, 5, func() {})
	if ref, ok := refOf(c, live); !ok || ref.At != 3 {
		t.Fatalf("live event after stale Rearm: %+v, %v; want pending at 3", ref, ok)
	}
	if ref, ok := refOf(c, fresh); !ok || ref.At != 6 || fresh == live {
		t.Fatalf("stale Rearm: id %#x ref %+v, %v; want a new event at 6", fresh, ref, ok)
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", c.Pending())
	}
}
