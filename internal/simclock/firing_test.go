package simclock

import (
	"fmt"
	"math/rand"
	"testing"
)

// firingScript drives one clock through a seeded script whose callbacks
// act on the clock from inside the firing event: they re-arm their own
// event (by its firing ID, or by the ID a re-arm returned), cancel it,
// cancel or re-arm other events, schedule zero-delay and later events,
// call Stop or a nested Step, and log what Cancel, Pending and
// NextEventTime answer. With popFirst set every callback first settles
// the clock, popping the firing event before anything else happens, as
// Step did before it kept a firing cancellable event at the root; a
// Rearm of the firing ID then finds nothing and schedules afresh.
type firingScript struct {
	c        *Clock
	rnd      *rand.Rand
	popFirst bool
	ids      []EventID // cancellable IDs handed out, pending or stale
	budget   int       // events the callbacks may still schedule or re-arm
	nested   bool      // inside a nested Step
	tag      int
	log      []string

	// Path counts, taken on the in-place side only.
	inPlace, notRearmed, stops, nestedSteps int
}

func newFiringScript(seed int64, popFirst bool) *firingScript {
	return &firingScript{c: New(), rnd: rand.New(rand.NewSource(seed)), popFirst: popFirst, budget: 600}
}

func (d *firingScript) logf(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

func (d *firingScript) delay() float64 {
	return []float64{0, 0.5, 1}[d.rnd.Intn(3)]
}

// pick returns a handed-out cancellable ID, or 0 when there is none.
func (d *firingScript) pick() EventID {
	if len(d.ids) == 0 {
		return 0
	}
	return d.ids[d.rnd.Intn(len(d.ids))]
}

// schedule arms a new event and logs its firing key.
func (d *firingScript) schedule(cancellable bool, delay float64) {
	d.budget--
	d.tag++
	if !cancellable {
		d.c.After(delay, d.fire(d.tag, nil))
		d.logf("at %d: %v seq %d", d.tag, d.c.Now()+delay, d.c.State().Seq)
		return
	}
	own := new(EventID)
	*own = d.c.AfterCancellable(delay, d.fire(d.tag, own))
	d.armed("arm", *own)
}

// rearm moves (or, when from is not pending, schedules afresh) a
// cancellable event under a new tag and returns its ID.
func (d *firingScript) rearm(from EventID) EventID {
	d.budget--
	d.tag++
	if !d.popFirst && from != 0 && from == d.c.firing {
		d.inPlace++
	}
	own := new(EventID)
	*own = d.c.Rearm(from, d.delay(), d.fire(d.tag, own))
	d.armed("rearm", *own)
	return *own
}

func (d *firingScript) armed(what string, id EventID) {
	d.ids = append(d.ids, id)
	ref, ok := refOf(d.c, id)
	if !ok {
		panic("firingScript: armed event not pending")
	}
	d.logf("%s %d: %v seq %d", what, d.tag, ref.At, ref.Seq)
}

func (d *firingScript) observe(where string) {
	t, ok := d.c.NextEventTime()
	d.logf("%s: pending %d next %v %v", where, d.c.Pending(), t, ok)
}

// fire is the callback of event tag; own holds its ID when it is
// cancellable.
func (d *firingScript) fire(tag int, own *EventID) EventFunc {
	return func() {
		var fired EventID
		if own != nil {
			fired = *own
		}
		d.logf("fire %d at %v", tag, d.c.Now())
		if d.popFirst {
			d.c.settle()
		}
		var last EventID // the ID the callback's last re-arm of itself returned
		for n := d.rnd.Intn(6); n > 0; n-- {
			switch d.rnd.Intn(10) {
			case 0, 1:
				if fired != 0 && d.budget > 0 {
					from := fired
					if last != 0 && d.rnd.Intn(2) == 0 {
						from = last
					}
					last = d.rearm(from)
				}
			case 2:
				d.logf("cancel own: %v", d.c.Cancel(fired))
				if last != 0 {
					d.logf("cancel re-armed: %v", d.c.Cancel(last))
					last = 0
				}
			case 3:
				d.logf("cancel other: %v", d.c.Cancel(d.pick()))
			case 4:
				if d.budget > 0 {
					d.rearm(d.pick())
				}
			case 5:
				if d.budget > 0 {
					d.schedule(d.rnd.Intn(2) == 0, 0)
				}
			case 6:
				if d.budget > 0 {
					d.schedule(d.rnd.Intn(2) == 0, d.delay())
				}
			case 7:
				d.observe("inside")
			case 8:
				d.c.Reserve()
			case 9:
				if d.rnd.Intn(3) > 0 {
					d.c.Stop()
					d.stops++
					d.logf("stop")
				} else if !d.nested {
					d.nested = true
					d.nestedSteps++
					d.logf("nested step: %v", d.c.Step())
					d.nested = false
				}
			}
		}
		if fired != 0 && last == 0 {
			d.notRearmed++
		}
	}
}

// run schedules the opening events and drains the clock through
// RunUntil on the tie grid, then Run, logging what the clock reports
// between calls.
func (d *firingScript) run() {
	for i := 0; i < 30; i++ {
		d.schedule(d.rnd.Intn(3) > 0, d.delay())
	}
	for deadline := 0.0; d.c.Pending() > 0 && deadline < 20; deadline += 0.5 {
		d.c.RunUntil(max(deadline, d.c.Now())) // a nested Step may have passed it
		d.logf("until %v: now %v", deadline, d.c.Now())
		d.observe("between")
	}
	for d.c.Pending() > 0 {
		d.c.Run()
		d.observe("after run")
	}
	d.logf("state %+v", d.c.State())
}

// A firing cancellable event stays at the heap root while its callback
// runs and a Rearm of it moves it in place. Over random scripts the clock
// must fire the same events at the same (time, seq), answer Cancel,
// Pending and NextEventTime the same inside callbacks and between runs,
// and end in the same State as a clock that pops every event before its
// callback.
func TestFiringRearmMatchesPopAndPush(t *testing.T) {
	var inPlace, notRearmed, stops, nestedSteps int
	for seed := int64(1); seed <= 60; seed++ {
		moved := newFiringScript(seed, false)
		popped := newFiringScript(seed, true)
		moved.run()
		popped.run()
		for i := range moved.log {
			if i >= len(popped.log) || moved.log[i] != popped.log[i] {
				var want string
				if i < len(popped.log) {
					want = popped.log[i]
				}
				t.Fatalf("seed %d: logs diverge at entry %d: in place %q, pop first %q", seed, i, moved.log[i], want)
			}
		}
		if len(moved.log) != len(popped.log) {
			t.Fatalf("seed %d: pop first logged %d entries, in place %d", seed, len(popped.log), len(moved.log))
		}
		if moved.c.State() != popped.c.State() {
			t.Fatalf("seed %d: counters differ: in place %+v, pop first %+v", seed, moved.c.State(), popped.c.State())
		}
		inPlace += moved.inPlace
		notRearmed += moved.notRearmed
		stops += moved.stops
		nestedSteps += moved.nestedSteps
	}
	if inPlace == 0 || notRearmed == 0 || stops == 0 || nestedSteps == 0 {
		t.Fatalf("scripts miss a path: %d in-place re-arms, %d callbacks that did not re-arm, %d stops, %d nested steps",
			inPlace, notRearmed, stops, nestedSteps)
	}
}
