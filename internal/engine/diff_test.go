package engine

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/simclock"
)

// refQuery and refEngine are a reference copy of the engine's rate
// model as it was before the slot kernel: every pass walks the active
// queries, each query carries its own remaining work and rate, and the
// station counters are booked on every event.
type refQuery struct {
	id        QueryID
	class     ClassID
	demand    Demand
	state     State
	done      simclock.Time
	remaining float64
	rate      float64
	index     int
}

type refEngine struct {
	cfg        Config
	clock      *simclock.Clock
	onDone     func(*refQuery)
	nextID     QueryID
	active     []*refQuery
	lastUpdate simclock.Time
	pendingEvt simclock.EventID
	eventFn    simclock.EventFunc
	speed      float64
	weights    map[ClassID]float64
	deferRes   bool
	cpuUsed    float64
	ioUsed     float64
}

func newRefEngine(cfg Config, clock *simclock.Clock) *refEngine {
	r := &refEngine{cfg: cfg, clock: clock, speed: 1}
	r.eventFn = func() {
		r.pendingEvt = 0
		r.advanceTo(r.clock.Now())
		r.reschedule()
	}
	return r
}

func (r *refEngine) submit(q *refQuery) {
	r.nextID++
	q.id = r.nextID
	q.index = -1
	q.remaining = q.demand.Work
	r.advanceTo(r.clock.Now())
	q.state = StateExecuting
	q.index = len(r.active)
	r.active = append(r.active, q)
	r.reschedule()
}

func (r *refEngine) abort(q *refQuery) {
	r.advanceTo(r.clock.Now())
	if q.state != StateExecuting {
		return
	}
	r.remove(q)
	q.state = StateFailed
	q.done = r.clock.Now()
	r.reschedule()
	r.onDone(q)
}

func (r *refEngine) evacuate() []*refQuery {
	r.advanceTo(r.clock.Now())
	out := append([]*refQuery(nil), r.active...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].id < out[j-1].id; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for _, q := range out {
		r.remove(q)
		q.state = StateNew
		q.remaining, q.rate = 0, 0
	}
	r.reschedule()
	return out
}

func (r *refEngine) setSpeed(f float64) {
	r.advanceTo(r.clock.Now())
	r.speed = f
	r.reschedule()
}

func (r *refEngine) setWeights(w map[ClassID]float64) {
	r.advanceTo(r.clock.Now())
	r.weights = w
	r.reschedule()
}

func (r *refEngine) remove(q *refQuery) {
	i, last := q.index, len(r.active)-1
	r.active[i] = r.active[last]
	r.active[i].index = i
	r.active = r.active[:last]
	q.index = -1
}

func (r *refEngine) advanceTo(now simclock.Time) {
	dt := now - r.lastUpdate
	r.lastUpdate = now
	if dt == 0 || len(r.active) == 0 {
		return
	}
	var done []*refQuery
	for _, q := range r.active {
		progress := q.rate * dt
		if progress > q.remaining {
			progress = q.remaining
		}
		q.remaining -= progress
		r.cpuUsed += progress * q.demand.CPURate
		r.ioUsed += progress * q.demand.IORate
		if q.remaining <= completionEpsilon*q.demand.Work {
			done = append(done, q)
		}
	}
	for _, q := range done {
		r.remove(q)
		q.state = StateDone
		q.done = now
		q.remaining = 0
	}
	r.deferRes = true
	for _, q := range done {
		r.onDone(q)
	}
	r.deferRes = false
}

func (r *refEngine) reschedule() {
	next := minEventStep
	if !r.deferRes {
		next = r.recomputeRates()
	}
	if len(r.active) == 0 || r.speed <= 0 {
		if r.pendingEvt != 0 {
			r.clock.Cancel(r.pendingEvt)
			r.pendingEvt = 0
		}
		return
	}
	if next < minEventStep {
		next = minEventStep
	}
	r.pendingEvt = r.clock.Rearm(r.pendingEvt, next, r.eventFn)
}

func (r *refEngine) weight(c ClassID) float64 {
	if w, ok := r.weights[c]; ok {
		return w
	}
	return 1
}

func (r *refEngine) recomputeRates() float64 {
	next := math.Inf(1)
	if len(r.active) == 0 {
		return next
	}
	overhead := 1 + r.cfg.ContentionAlpha*float64(len(r.active)-1)
	cpuScale := r.stationScales(func(d Demand) float64 { return d.CPURate }, r.cfg.CPUCapacity)
	ioScale := r.stationScales(func(d Demand) float64 { return d.IORate }, r.cfg.IOCapacity)
	for _, q := range r.active {
		rate := 1.0
		if q.demand.CPURate > 0 && cpuScale[q.class] < rate {
			rate = cpuScale[q.class]
		}
		if q.demand.IORate > 0 && ioScale[q.class] < rate {
			rate = ioScale[q.class]
		}
		q.rate = rate * r.speed / overhead
		if q.rate <= 0 {
			continue
		}
		if t := q.remaining / q.rate; t < next {
			next = t
		}
	}
	return next
}

// stationScales is the per-class share of one station: 1 below
// capacity, capacity/total under plain sharing, weighted max-min
// water filling in class-ID order under weights.
func (r *refEngine) stationScales(rate func(Demand) float64, capacity float64) map[ClassID]float64 {
	demand := map[ClassID]float64{}
	var classes []ClassID
	var total float64
	for _, q := range r.active {
		if _, ok := demand[q.class]; !ok {
			classes = append(classes, q.class)
		}
		demand[q.class] += rate(q.demand)
		total += rate(q.demand)
	}
	scale := map[ClassID]float64{}
	if total <= capacity {
		for _, c := range classes {
			scale[c] = 1
		}
		return scale
	}
	if r.weights == nil {
		for _, c := range classes {
			scale[c] = capacity / total
		}
		return scale
	}
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	remaining := capacity
	pending := map[ClassID]bool{}
	for _, c := range classes {
		if demand[c] > 0 {
			pending[c] = true
		} else {
			scale[c] = 1
		}
	}
	for len(pending) > 0 {
		var weightSum float64
		for _, c := range classes {
			if pending[c] {
				weightSum += r.weight(c)
			}
		}
		var sated []ClassID
		for _, c := range classes {
			if pending[c] && remaining*r.weight(c)/weightSum >= demand[c] {
				sated = append(sated, c)
			}
		}
		if len(sated) > 0 {
			for _, c := range sated {
				scale[c] = 1
				remaining -= demand[c]
				delete(pending, c)
			}
			continue
		}
		for _, c := range classes {
			if pending[c] {
				scale[c] = remaining * r.weight(c) / weightSum / demand[c]
				delete(pending, c)
			}
		}
	}
	return scale
}

// outcome is one terminal event as both engines report it.
type outcome struct {
	id    QueryID
	state State
	bits  uint64 // math.Float64bits of the done time
}

// diffDemand draws a demand using the CPU, the I/O station or both.
func diffDemand(src *rng.Source) Demand {
	d := Demand{Work: src.Range(0.001, 20)}
	switch src.Intn(3) {
	case 0:
		d.CPURate = src.Range(0.05, 2)
	case 1:
		d.IORate = src.Range(0.05, 3)
	default:
		d.CPURate, d.IORate = src.Range(0.05, 2), src.Range(0.05, 3)
	}
	return d
}

// followUp derives the demand a completion resubmits from its query ID,
// so both engines start the same work inside a completion cascade.
func followUp(id QueryID) (Demand, ClassID, bool) {
	if id%3 != 0 {
		return Demand{}, 0, false
	}
	f := float64(id%11) + 1
	return Demand{Work: 0.13 * f, CPURate: 0.1 * f, IORate: 0.3 * float64(id%2)}, ClassID(id % 4), true
}

// TestSlotKernelMatchesPerQueryReference drives the engine and the
// reference copy of the per-query loops through the same randomized
// scripts — submissions, completion-driven resubmissions, aborts,
// evacuations with re-submission, speed changes including stalls, and
// class weights switched on and off — and requires the same terminal
// outcomes in the same order with bit-equal done times. The station
// counters are booked differently (per query on leaving, not per event)
// and must agree to rounding.
func TestSlotKernelMatchesPerQueryReference(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		src := rng.New(seed)
		cfg := Config{CPUCapacity: src.Range(0.5, 4), IOCapacity: src.Range(1, 16), ContentionAlpha: src.Range(0, 0.05)}
		eClock, rClock := simclock.New(), simclock.New()
		e := New(cfg, eClock)
		ref := newRefEngine(cfg, rClock)

		var got, want []outcome
		e.OnDone(func(q *Query) {
			got = append(got, outcome{q.ID, q.State, math.Float64bits(q.DoneTime)})
			if d, c, ok := followUp(q.ID); ok && q.State == StateDone {
				e.Submit(&Query{Class: c, Demand: d})
			}
		})
		ref.onDone = func(q *refQuery) {
			want = append(want, outcome{q.id, q.state, math.Float64bits(q.done)})
			if d, c, ok := followUp(q.id); ok && q.state == StateDone {
				ref.submit(&refQuery{class: c, demand: d})
			}
		}

		at := 0.0
		for op := 0; op < 60; op++ {
			at += src.Range(0, 3)
			switch k := src.Intn(10); {
			case k < 5:
				d, c := diffDemand(src), ClassID(src.Intn(4))
				eClock.At(at, func() { e.Submit(&Query{Class: c, Demand: d}) })
				rClock.At(at, func() { ref.submit(&refQuery{class: c, demand: d}) })
			case k == 5:
				pick := src.Intn(1 << 20)
				rClock.At(at, func() {
					if n := len(ref.active); n > 0 {
						ref.abort(ref.active[pick%n])
					}
				})
				eClock.At(at, func() {
					if n := len(e.active); n > 0 {
						e.Abort(e.active[pick%n])
					}
				})
			case k == 6:
				eClock.At(at, func() {
					for _, q := range e.Evacuate() {
						e.Submit(q)
					}
				})
				rClock.At(at, func() {
					for _, q := range ref.evacuate() {
						ref.submit(q)
					}
				})
			case k == 7:
				f := []float64{0, 0.5, 1, 1.7}[src.Intn(4)]
				eClock.At(at, func() { e.SetSpeed(f) })
				rClock.At(at, func() { ref.setSpeed(f) })
			default:
				var w map[ClassID]float64
				if src.Intn(2) == 0 {
					w = map[ClassID]float64{}
					for c := ClassID(0); c < 4; c++ {
						if src.Intn(3) > 0 {
							w[c] = src.Range(0.2, 5)
						}
					}
				}
				eClock.At(at, func() { e.SetClassWeights(w) })
				rClock.At(at, func() { ref.setWeights(w) })
			}
		}
		// End on nominal speed so every query drains.
		eClock.At(at+1, func() { e.SetSpeed(1) })
		rClock.At(at+1, func() { ref.setSpeed(1) })
		eClock.Run()
		rClock.Run()

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d outcomes, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: outcome %d = %+v (t=%v), reference %+v (t=%v)", seed, i,
					got[i], math.Float64frombits(got[i].bits), want[i], math.Float64frombits(want[i].bits))
			}
		}
		st := e.Stats()
		if !almost(st.CPUSecondsUsed, ref.cpuUsed) || !almost(st.IOSecondsUsed, ref.ioUsed) {
			t.Fatalf("seed %d: station use %v cpu / %v io, reference %v / %v",
				seed, st.CPUSecondsUsed, st.IOSecondsUsed, ref.cpuUsed, ref.ioUsed)
		}
	}
}
