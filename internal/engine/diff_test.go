package engine

import (
	"fmt"
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

// cascadeAction is what a completion listener does inside the cascade
// when a script asks for cascade work: the completed query's ID picks
// an abort of another executing query, an evacuation with
// re-submission, or nothing, so both engines do the same.
func cascadeAction(id QueryID) (abort, evacuate bool) {
	return id%5 == 1, id%13 == 4
}

// utilizationMismatch compares Utilization bit for bit with a fresh sum
// over the executing queries in slot order and describes a mismatch.
func utilizationMismatch(e *Engine) string {
	var cpu, io float64
	for _, q := range e.active {
		cpu += q.Demand.CPURate
		io += q.Demand.IORate
	}
	wantCPU, wantIO := cpu/e.cfg.CPUCapacity, io/e.cfg.IOCapacity
	gotCPU, gotIO := e.Utilization()
	if math.Float64bits(gotCPU) != math.Float64bits(wantCPU) || math.Float64bits(gotIO) != math.Float64bits(wantIO) {
		return fmt.Sprintf("Utilization = (%v, %v), fresh sum over %d slots = (%v, %v)",
			gotCPU, gotIO, len(e.active), wantCPU, wantIO)
	}
	return ""
}

// TestSlotKernelMatchesPerQueryReference drives the engine and the
// reference copy of the per-query loops through the same randomized
// scripts — submissions, completion-driven resubmissions, aborts,
// evacuations with re-submission, speed changes including stalls, and
// class weights switched on and off — and requires the same terminal
// outcomes in the same order with bit-equal done times, and the same
// clock sequence and issue counters at the end. The cascade scripts
// also abort and evacuate from inside completion listeners, the removals
// a completion pass does not see. Utilization must equal a fresh sum in
// slot order after every scripted op, clock event and completion
// callback. The station counters are booked differently (per query on
// leaving, not per event) and must agree to rounding.
func TestSlotKernelMatchesPerQueryReference(t *testing.T) {
	var in cascadeCounts
	for _, cascade := range []bool{false, true} {
		for seed := uint64(1); seed <= 150; seed++ {
			if msg := runSlotKernelScript(seed, cascade, &in); msg != "" {
				t.Fatalf("seed %d, cascade %v: %s", seed, cascade, msg)
			}
		}
	}
	if in.aborts == 0 || in.evacuations == 0 {
		t.Fatalf("cascade scripts ran %d aborts and %d evacuations inside completion listeners; want some of each",
			in.aborts, in.evacuations)
	}
}

// cascadeCounts counts the aborts and evacuations the engine ran from
// inside completion listeners.
type cascadeCounts struct{ aborts, evacuations int }

// runSlotKernelScript runs one randomized script on the engine and the
// reference, adds its in-listener removals to in, and returns the first
// difference, or "".
func runSlotKernelScript(seed uint64, cascade bool, in *cascadeCounts) string {
	src := rng.New(seed)
	cfg := Config{CPUCapacity: src.Range(0.5, 4), IOCapacity: src.Range(1, 16), ContentionAlpha: src.Range(0, 0.05)}
	eClock, rClock := simclock.New(), simclock.New()
	e := New(cfg, eClock)
	ref := newRefEngine(cfg, rClock)

	var got, want []outcome
	var utilErr string
	checkUtil := func(when string) {
		if utilErr == "" {
			if msg := utilizationMismatch(e); msg != "" {
				utilErr = fmt.Sprintf("%s at t=%v: %s", when, eClock.Now(), msg)
			}
		}
	}
	e.OnDone(func(q *Query) {
		got = append(got, outcome{q.ID, q.State, math.Float64bits(q.DoneTime)})
		checkUtil("completion")
		if q.State != StateDone {
			return
		}
		if d, c, ok := followUp(q.ID); ok {
			e.Submit(&Query{Class: c, Demand: d})
			checkUtil("cascade submit")
		}
		if !cascade {
			return
		}
		abort, evacuate := cascadeAction(q.ID)
		if n := len(e.active); abort && n > 0 {
			e.Abort(e.active[int(q.ID)%n])
			in.aborts++
			checkUtil("cascade abort")
		}
		if evacuate {
			for _, r := range e.Evacuate() {
				e.Submit(r)
			}
			in.evacuations++
			checkUtil("cascade evacuate")
		}
	})
	ref.onDone = func(q *refQuery) {
		want = append(want, outcome{q.id, q.state, math.Float64bits(q.done)})
		if q.state != StateDone {
			return
		}
		if d, c, ok := followUp(q.id); ok {
			ref.submit(&refQuery{class: c, demand: d})
		}
		if !cascade {
			return
		}
		abort, evacuate := cascadeAction(q.id)
		if n := len(ref.active); abort && n > 0 {
			ref.abort(ref.active[int(q.id)%n])
		}
		if evacuate {
			for _, r := range ref.evacuate() {
				ref.submit(r)
			}
		}
	}

	at := 0.0
	for op := 0; op < 60; op++ {
		at += src.Range(0, 3)
		switch k := src.Intn(10); {
		case k < 5:
			d, c := diffDemand(src), ClassID(src.Intn(4))
			eClock.At(at, func() { e.Submit(&Query{Class: c, Demand: d}); checkUtil("submit") })
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
				checkUtil("abort")
			})
		case k == 6:
			eClock.At(at, func() {
				for _, q := range e.Evacuate() {
					e.Submit(q)
				}
				checkUtil("evacuate")
			})
			rClock.At(at, func() {
				for _, q := range ref.evacuate() {
					ref.submit(q)
				}
			})
		case k == 7:
			f := []float64{0, 0.5, 1, 1.7}[src.Intn(4)]
			eClock.At(at, func() { e.SetSpeed(f); checkUtil("speed") })
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
			eClock.At(at, func() { e.SetClassWeights(w); checkUtil("weights") })
			rClock.At(at, func() { ref.setWeights(w) })
		}
	}
	// End on nominal speed so every query drains.
	eClock.At(at+1, func() { e.SetSpeed(1) })
	rClock.At(at+1, func() { ref.setSpeed(1) })
	for eClock.Step() {
		checkUtil("event")
	}
	rClock.Run()

	if utilErr != "" {
		return utilErr
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d outcomes, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("outcome %d = %+v (t=%v), reference %+v (t=%v)", i,
				got[i], math.Float64frombits(got[i].bits), want[i], math.Float64frombits(want[i].bits))
		}
	}
	if es, rs := eClock.State(), rClock.State(); es.Seq != rs.Seq || es.NextID != rs.NextID {
		return fmt.Sprintf("clock counters seq %d / issued %d, reference %d / %d", es.Seq, es.NextID, rs.Seq, rs.NextID)
	}
	st := e.Stats()
	if !almost(st.CPUSecondsUsed, ref.cpuUsed) || !almost(st.IOSecondsUsed, ref.ioUsed) {
		return fmt.Sprintf("station use %v cpu / %v io, reference %v / %v",
			st.CPUSecondsUsed, st.IOSecondsUsed, ref.cpuUsed, ref.ioUsed)
	}
	return ""
}

// TestAbortAtCompletionInstantArmsPlaceholder covers the one cascade
// whose caller returns without a trailing reschedule: an Abort that
// fires at the exact instant its query completes, whose completion
// listener starts two queries. That cascade arms a real placeholder one
// minEventStep ahead, as the engine always has; when it fires, the two
// queries advance over that step at the CPU rate set before the
// cascade (1, the first query's), and only then share the CPU at 1/2.
// A cascade that only reserved the clock counters would leave the first
// query's completion event at t=1 and finish both at exactly 3.
func TestAbortAtCompletionInstantArmsPlaceholder(t *testing.T) {
	clock := simclock.New()
	e := New(Config{CPUCapacity: 1, IOCapacity: 1}, clock)
	d := Demand{Work: 1, CPURate: 1}
	var done []*Query
	e.OnDone(func(q *Query) {
		done = append(done, q)
		if q.ID == 1 {
			e.Submit(&Query{Demand: d})
			e.Submit(&Query{Demand: d})
		}
	})
	// Scheduled before the submission, the abort draws the lower
	// sequence number and fires first at the completion instant t=1.
	first := &Query{Demand: d}
	clock.At(1, func() {
		if e.Abort(first) {
			t.Error("Abort of a query completing at this instant succeeded")
		}
	})
	e.Submit(first)
	clock.Run()

	at := 1 + minEventStep
	want := at + (1-(at-1))/0.5
	if len(done) != 3 || first.State != StateDone || first.DoneTime != 1 {
		t.Fatalf("%d completions, first query %v at %v; want three, the first done at 1", len(done), first.State, first.DoneTime)
	}
	for _, q := range done[1:] {
		if math.Float64bits(q.DoneTime) != math.Float64bits(want) {
			t.Fatalf("query %d done at %v, want %v", q.ID, q.DoneTime, want)
		}
	}
	if st := clock.State(); st.Seq != 5 || st.NextID != 4 {
		t.Fatalf("clock counters seq %d / issued %d, want 5 / 4", st.Seq, st.NextID)
	}
}
