// Package fault is a deterministic, seeded fault-plan subsystem for the
// simulated testbed: it injects query aborts (per-class base rates plus
// scheduled bursts), optimizer cost misestimation (actual demand differs
// from the timeron estimate by a per-class multiplier), engine slowdown
// and stall windows, and monitor dropouts (snapshot polls and whole
// harvests). The control loop's robustness features — per-query timeout,
// bounded retry with refreshed cost, plan-hold degradation — are
// evaluated against exactly these faults (see experiment.RunFaultMatrix).
//
// Everything is driven by one Plan and one owned RNG stream, so a run
// with a given (workload seed, fault plan) pair is bit-reproducible: the
// injector draws only at deterministic simulation events (query starts,
// snapshot polls) and never from shared or global randomness.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// Injection kinds, as reported through Injector.OnInject and counted in
// Stats. They double as the obs label values of fault_injected_total.
const (
	KindAbort        = "abort"
	KindMisestimate  = "misestimate"
	KindSlowdown     = "slowdown"
	KindSnapshotDrop = "snapshot_drop"
	KindHarvestDrop  = "harvest_drop"
	KindCrash        = "crash"
	// Backend-scoped kinds: faults that hit one fleet backend instead of
	// the whole run. Injected only by backend injectors (NewBackendInjector).
	KindBackendCrash    = "backend_crash"
	KindBackendRecover  = "backend_recover"
	KindBackendBrownout = "backend_brownout"
	KindBackendDropout  = "backend_dropout"
)

// Window is a half-open interval [Start, End) of virtual seconds. The
// windowed fault types embed it, so a spec file writes their windows
// flat: {"start": s, "end": e, ...}.
type Window struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

func (w Window) validate(what string) error {
	if math.IsNaN(w.Start) || math.IsNaN(w.End) || w.Start < 0 || w.End <= w.Start {
		return fmt.Errorf("fault: %s window [%v, %v) is invalid", what, w.Start, w.End)
	}
	return nil
}

// Burst raises the abort probability inside a window — a failure storm.
type Burst struct {
	Window
	// Class restricts the burst to one service class; 0 hits every class.
	Class engine.ClassID `json:"class"`
	// Rate is the per-query abort probability while the burst is active.
	// It replaces (not adds to) the base rate when larger.
	Rate float64 `json:"rate"`
}

// Slowdown scales the engine's progress rate inside a window. Factor 0 is
// a full stall (the engine freezes; queries neither progress nor finish).
type Slowdown struct {
	Window
	Factor float64 `json:"factor"`
}

// BackendCrash kills one fleet backend at a virtual time: its engine
// stalls (SetSpeed 0) and the router's health model takes it out of
// scoring. A positive RecoverAt brings the backend back; zero means it
// stays dead for the rest of the run.
type BackendCrash struct {
	// Backend is the 1-based roster ID of the backend to kill.
	Backend   int     `json:"backend"`
	At        float64 `json:"at"`
	RecoverAt float64 `json:"recover_at"`
}

// BackendSlowdown is a brownout: one backend's engine runs at Factor
// speed inside the window (Factor 0 would be a crash; use BackendCrash
// for that, so brownout factors live in (0, 1)).
type BackendSlowdown struct {
	Backend int `json:"backend"`
	Window
	Factor float64 `json:"factor"`
}

// BackendOutage severs one backend's monitor/planner reporting inside
// the window: every snapshot poll and control-interval harvest on that
// backend is lost, exactly as if its telemetry link dropped.
type BackendOutage struct {
	Backend int `json:"backend"`
	Window
}

// Plan is one deterministic fault scenario. The zero value injects
// nothing.
type Plan struct {
	// Seed seeds the injector's private RNG stream (abort draws and
	// probabilistic snapshot drops). Zero is a valid seed.
	Seed uint64 `json:"seed"`
	// AbortRate is the base per-query abort probability per class,
	// drawn once when a query starts executing.
	AbortRate engine.ClassMap[float64] `json:"abort_rate"`
	// AbortBursts are scheduled failure storms layered over AbortRate.
	AbortBursts []Burst `json:"abort_bursts"`
	// Misestimate multiplies a class's actual resource demand relative
	// to its optimizer estimate: 3 means the query really needs 3x what
	// the timeron cost claims (the admission controller over-admits);
	// 0 or absent leaves the class alone.
	Misestimate engine.ClassMap[float64] `json:"misestimate"`
	// Slowdowns are engine-wide degradation windows. Windows must not
	// overlap.
	Slowdowns []Slowdown `json:"slowdowns"`
	// SnapshotDrop is the probability that one snapshot-monitor poll is
	// lost (all clients, that tick).
	SnapshotDrop float64 `json:"snapshot_drop"`
	// SnapshotOutages are windows in which every snapshot poll is lost.
	SnapshotOutages []Window `json:"snapshot_outages"`
	// HarvestOutages are windows in which the monitor's whole control-
	// interval harvest is lost: the planner receives a zeroed
	// measurement flagged Dropped.
	HarvestOutages []Window `json:"harvest_outages"`
	// Crash, when positive, kills the run at that virtual time: the clock
	// stops mid-simulation as if the process died. Used by the crash-
	// recovery experiments to exercise checkpoint/resume. A resumed run
	// re-simulates from the start with the crash disarmed: the event is
	// still scheduled, so clock sequence numbers match the crashed run,
	// but firing it does nothing (see Injector.DisarmCrash).
	Crash float64 `json:"crash"`
	// BackendCrashes kill individual backends (with optional recovery).
	// At every instant at least one roster backend must stay up; see
	// ValidateRoster.
	BackendCrashes []BackendCrash `json:"backend_crashes"`
	// BackendBrownouts degrade individual backends inside windows.
	BackendBrownouts []BackendSlowdown `json:"backend_brownouts"`
	// BackendDropouts sever individual backends' monitor reporting.
	BackendDropouts []BackendOutage `json:"backend_dropouts"`
}

// MaxAbortClass is the largest class ID a plan's AbortRate may name:
// the injector reads base rates from a dense per-class table, built once.
const MaxAbortClass = 1<<10 - 1

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return len(p.AbortRate) == 0 && len(p.AbortBursts) == 0 &&
		len(p.Misestimate) == 0 && len(p.Slowdowns) == 0 &&
		p.SnapshotDrop <= 0 && len(p.SnapshotOutages) == 0 && len(p.HarvestOutages) == 0 &&
		p.Crash <= 0 && !p.HasBackendFaults()
}

// HasBackendFaults reports whether the plan contains any backend-scoped
// faults (crashes, brownouts, dropouts of roster backends).
func (p Plan) HasBackendFaults() bool {
	return len(p.BackendCrashes) > 0 || len(p.BackendBrownouts) > 0 || len(p.BackendDropouts) > 0
}

// MaxBackend returns the highest backend ID any backend-scoped fault
// references (0 when there are none), so a runner can reject plans that
// name backends outside its roster.
func (p Plan) MaxBackend() int {
	max := 0
	for _, bc := range p.BackendCrashes {
		if bc.Backend > max {
			max = bc.Backend
		}
	}
	for _, bs := range p.BackendBrownouts {
		if bs.Backend > max {
			max = bs.Backend
		}
	}
	for _, bo := range p.BackendDropouts {
		if bo.Backend > max {
			max = bo.Backend
		}
	}
	return max
}

// ValidateRoster checks the plan's backend-scoped faults against an
// n-backend roster: every target must exist, and the crash windows
// must leave at least one backend up at every instant. A total outage
// would leave the router nowhere to send arrivals.
func (p Plan) ValidateRoster(n int) error {
	if mb := p.MaxBackend(); mb > n {
		return fmt.Errorf("fault: plan targets backend %d of a %d-backend roster", mb, n)
	}
	// The set of down backends only grows at crash instants, so a total
	// outage, if any, starts at one of them. A recovery at the same
	// instant may fire after the crash, so it does not count as up.
	for _, c := range p.BackendCrashes {
		down := 0
		for _, o := range p.BackendCrashes {
			if o.At <= c.At && (o.RecoverAt == 0 || c.At <= o.RecoverAt) {
				down++
			}
		}
		if down >= n {
			return fmt.Errorf("fault: backend crashes leave no backend up at t=%v (%d of %d down)", c.At, down, n)
		}
	}
	return nil
}

// Validate checks rates, multipliers, and window shapes.
func (p Plan) Validate() error {
	for _, class := range p.AbortRate.IDs() {
		if class < 0 || class > MaxAbortClass {
			return fmt.Errorf("fault: abort rate class %d outside 0..%d", class, MaxAbortClass)
		}
		if r := p.AbortRate[class]; r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("fault: abort rate %v for class %d out of [0, 1]", r, class)
		}
	}
	for i, b := range p.AbortBursts {
		if err := b.Window.validate("abort burst"); err != nil {
			return err
		}
		if b.Rate < 0 || b.Rate > 1 || math.IsNaN(b.Rate) {
			return fmt.Errorf("fault: burst %d rate %v out of [0, 1]", i, b.Rate)
		}
	}
	for _, class := range p.Misestimate.IDs() {
		if m := p.Misestimate[class]; m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("fault: misestimate factor %v for class %d is invalid", m, class)
		}
	}
	slow := append([]Slowdown(nil), p.Slowdowns...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].Window.Start < slow[j].Window.Start })
	for i, s := range slow {
		if err := s.Window.validate("slowdown"); err != nil {
			return err
		}
		if s.Factor < 0 || s.Factor >= 1 || math.IsNaN(s.Factor) {
			return fmt.Errorf("fault: slowdown factor %v out of [0, 1)", s.Factor)
		}
		if i > 0 && s.Window.Start < slow[i-1].Window.End {
			return fmt.Errorf("fault: slowdown windows overlap at t=%v", s.Window.Start)
		}
	}
	if p.SnapshotDrop < 0 || p.SnapshotDrop > 1 || math.IsNaN(p.SnapshotDrop) {
		return fmt.Errorf("fault: snapshot drop %v out of [0, 1]", p.SnapshotDrop)
	}
	for _, w := range p.SnapshotOutages {
		if err := w.validate("snapshot outage"); err != nil {
			return err
		}
	}
	for _, w := range p.HarvestOutages {
		if err := w.validate("harvest outage"); err != nil {
			return err
		}
	}
	if p.Crash < 0 || math.IsNaN(p.Crash) || math.IsInf(p.Crash, 0) {
		return fmt.Errorf("fault: crash time %v is invalid", p.Crash)
	}
	crashes := append([]BackendCrash(nil), p.BackendCrashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].Backend != crashes[j].Backend {
			return crashes[i].Backend < crashes[j].Backend
		}
		return crashes[i].At < crashes[j].At
	})
	for i, bc := range crashes {
		if bc.Backend < 1 {
			return fmt.Errorf("fault: backend crash references backend %d (IDs are 1-based)", bc.Backend)
		}
		if bc.At <= 0 || math.IsNaN(bc.At) || math.IsInf(bc.At, 0) {
			return fmt.Errorf("fault: backend %d crash time %v is invalid", bc.Backend, bc.At)
		}
		if bc.RecoverAt != 0 && (bc.RecoverAt <= bc.At || math.IsNaN(bc.RecoverAt) || math.IsInf(bc.RecoverAt, 0)) {
			return fmt.Errorf("fault: backend %d recovery time %v must follow crash time %v", bc.Backend, bc.RecoverAt, bc.At)
		}
		if i > 0 && crashes[i-1].Backend == bc.Backend {
			prev := crashes[i-1]
			if prev.RecoverAt == 0 || bc.At < prev.RecoverAt {
				return fmt.Errorf("fault: backend %d crash at t=%v overlaps an earlier outage", bc.Backend, bc.At)
			}
		}
	}
	brown := append([]BackendSlowdown(nil), p.BackendBrownouts...)
	sort.Slice(brown, func(i, j int) bool {
		if brown[i].Backend != brown[j].Backend {
			return brown[i].Backend < brown[j].Backend
		}
		return brown[i].Window.Start < brown[j].Window.Start
	})
	for i, bs := range brown {
		if bs.Backend < 1 {
			return fmt.Errorf("fault: backend brownout references backend %d (IDs are 1-based)", bs.Backend)
		}
		if err := bs.Window.validate("backend brownout"); err != nil {
			return err
		}
		if bs.Factor <= 0 || bs.Factor >= 1 || math.IsNaN(bs.Factor) {
			return fmt.Errorf("fault: backend brownout factor %v out of (0, 1)", bs.Factor)
		}
		if i > 0 && brown[i-1].Backend == bs.Backend && bs.Window.Start < brown[i-1].Window.End {
			return fmt.Errorf("fault: backend %d brownout windows overlap at t=%v", bs.Backend, bs.Window.Start)
		}
	}
	for _, bo := range p.BackendDropouts {
		if bo.Backend < 1 {
			return fmt.Errorf("fault: backend dropout references backend %d (IDs are 1-based)", bo.Backend)
		}
		if err := bo.Window.validate("backend dropout"); err != nil {
			return err
		}
	}
	return nil
}

// Stats counts injections, total and per kind.
type Stats struct {
	Aborts           uint64
	Misestimates     uint64
	Slowdowns        uint64
	SnapshotDrops    uint64
	HarvestDrops     uint64
	Crashes          uint64
	BackendCrashes   uint64
	BackendRecovers  uint64
	BackendBrownouts uint64
	BackendDropouts  uint64
}

// Total sums all injection counters.
func (s Stats) Total() uint64 {
	return s.Aborts + s.Misestimates + s.Slowdowns + s.SnapshotDrops + s.HarvestDrops + s.Crashes +
		s.BackendCrashes + s.BackendRecovers + s.BackendBrownouts + s.BackendDropouts
}

// Add folds another stats block into s — fleet runs sum their
// per-backend injectors' counters into one run-level block.
func (s *Stats) Add(o Stats) {
	s.Aborts += o.Aborts
	s.Misestimates += o.Misestimates
	s.Slowdowns += o.Slowdowns
	s.SnapshotDrops += o.SnapshotDrops
	s.HarvestDrops += o.HarvestDrops
	s.Crashes += o.Crashes
	s.BackendCrashes += o.BackendCrashes
	s.BackendRecovers += o.BackendRecovers
	s.BackendBrownouts += o.BackendBrownouts
	s.BackendDropouts += o.BackendDropouts
}

// Injector executes a Plan against one engine + monitor pair. Construct
// with NewInjector, call AttachEngine before the run starts, and hand the
// injector to the Query Scheduler config as its MonitorFaults source.
type Injector struct {
	plan  Plan
	clock *simclock.Clock
	eng   *engine.Engine
	src   *rng.Source
	stats Stats
	// abortRate[c] is the plan's base abort rate for class c; classes
	// past its end are unlisted and read 0.
	abortRate []float64

	// backendID scopes the injector to one backend (1-based).
	// Backend-scoped faults fire only on the injector whose backendID
	// matches, and the run-level crash is armed only by backend 1
	// (exactly once per fleet).
	backendID int
	hooks     FleetHooks

	crashed bool
	// crashDisarmed turns the plan's run-killing crash into a no-op
	// (see DisarmCrash).
	crashDisarmed bool

	onInject []func(kind string, class engine.ClassID) // see OnInject
}

// OnInject registers a listener observing every injection as (kind,
// class); class is 0 for class-less kinds (slowdown, monitor drops).
// Listeners run in registration order. The obs wiring uses this to
// expose fault_injected_total.
func (in *Injector) OnInject(fn func(kind string, class engine.ClassID)) {
	in.onInject = append(in.onInject, fn)
}

// FleetHooks are the fleet-facing callbacks a backend injector fires on
// its backend's availability transitions — the experiment wiring routes
// them into the router's health model and the decision log. A crash or
// brownout always stalls/slows the local engine regardless of hooks, so
// a mitigation-off fleet still loses the capacity; the hooks are the
// mitigation.
type FleetHooks struct {
	Down     func()               // backend crash fired
	Up       func()               // backend recovered
	Degraded func(factor float64) // brownout window opened
	Restored func()               // brownout window closed
}

// Backend transition codes.
const (
	bevCrash = iota
	bevRecover
	bevBrownoutStart
	bevBrownoutEnd
)

// NewInjector builds the injector of a one-backend run: it scopes to
// backend 1 and draws from the plan's own seed, the single-engine RNG
// stream. The plan must validate.
func NewInjector(plan Plan, clock *simclock.Clock) *Injector {
	if clock == nil {
		panic("fault: nil clock")
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return newInjector(plan, clock, plan.Seed, 1)
}

// NewBackendInjector builds the injector for one fleet backend
// (1-based roster ID). Class-scoped faults (aborts, misestimation,
// engine-wide slowdowns, monitor drops) apply to this backend's engine
// and monitor like any single-engine run; backend-scoped faults fire
// only where the plan's Backend field matches. Each backend draws from
// its own RNG stream, decorrelated from its siblings by the roster ID,
// so a fleet's abort storms don't strike every box in lockstep. The
// run-level Crash is armed by backend 1 alone.
func NewBackendInjector(plan Plan, clock *simclock.Clock, backendID int) *Injector {
	if clock == nil {
		panic("fault: nil clock")
	}
	if backendID < 1 {
		panic("fault: backend injector IDs are 1-based")
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	seed := plan.Seed + uint64(backendID)*0x9e3779b97f4a7c15
	return newInjector(plan, clock, seed, backendID)
}

// newInjector builds an injector for a validated plan, laying its base
// abort rates out by class.
func newInjector(plan Plan, clock *simclock.Clock, seed uint64, backendID int) *Injector {
	n := 0
	for class := range plan.AbortRate {
		n = max(n, int(class)+1)
	}
	rates := make([]float64, n)
	for class, r := range plan.AbortRate {
		rates[class] = r
	}
	return &Injector{plan: plan, clock: clock, src: rng.New(seed), abortRate: rates, backendID: backendID}
}

// SetFleetHooks installs the fleet-facing availability callbacks. Call
// before the simulation runs (fresh or resumed); unset hooks are
// simply skipped, which is the mitigation-off configuration.
func (in *Injector) SetFleetHooks(h FleetHooks) { in.hooks = h }

// Stats returns cumulative injection counters.
func (in *Injector) Stats() Stats { return in.stats }

func (in *Injector) note(kind string, class engine.ClassID) {
	for _, fn := range in.onInject {
		fn(kind, class)
	}
}

// AttachEngine hooks the plan into an engine: misestimation rewrites
// demand at submit, abort draws happen at execution start, and slowdown
// windows are scheduled as clock events. Call exactly once, before the
// simulation runs.
func (in *Injector) AttachEngine(eng *engine.Engine) {
	if in.eng != nil {
		panic("fault: injector already attached to an engine")
	}
	in.eng = eng
	if len(in.plan.Misestimate) > 0 {
		eng.OnSubmit(func(q *engine.Query) {
			if q.Attempt > 0 {
				return // a retry's demand was already rewritten
			}
			m, ok := in.plan.Misestimate[q.Class]
			if !ok || m <= 0 {
				return
			}
			q.Demand.Work *= m
			in.stats.Misestimates++
			in.note(KindMisestimate, q.Class)
		})
	}
	if len(in.plan.AbortRate) > 0 || len(in.plan.AbortBursts) > 0 {
		eng.OnStart(func(q *engine.Query) { in.maybeScheduleAbort(q) })
	}
	for _, s := range in.plan.Slowdowns {
		in.armSlowdown(s.Window.Start, s.Factor, true)
		in.armSlowdown(s.Window.End, 1, false)
	}
	for _, bc := range in.plan.BackendCrashes {
		if bc.Backend != in.backendID {
			continue
		}
		in.armBackendEvent(bc.At, bevCrash, 0)
		if bc.RecoverAt > 0 {
			in.armBackendEvent(bc.RecoverAt, bevRecover, 1)
		}
	}
	for _, bs := range in.plan.BackendBrownouts {
		if bs.Backend != in.backendID {
			continue
		}
		in.armBackendEvent(bs.Window.Start, bevBrownoutStart, bs.Factor)
		in.armBackendEvent(bs.Window.End, bevBrownoutEnd, 1)
	}
	if in.plan.Crash > 0 && in.backendID == 1 {
		in.clock.At(in.plan.Crash, func() {
			if in.crashDisarmed {
				return
			}
			in.crashed = true
			in.stats.Crashes++
			in.note(KindCrash, 0)
			in.clock.Stop()
		})
	}
}

// armBackendEvent schedules one backend availability transition.
func (in *Injector) armBackendEvent(at float64, code int, factor float64) {
	in.clock.At(at, func() {
		switch code {
		case bevCrash:
			in.stats.BackendCrashes++
			in.note(KindBackendCrash, 0)
			in.eng.SetSpeed(0)
			if in.hooks.Down != nil {
				in.hooks.Down()
			}
		case bevRecover:
			in.stats.BackendRecovers++
			in.note(KindBackendRecover, 0)
			in.eng.SetSpeed(1)
			if in.hooks.Up != nil {
				in.hooks.Up()
			}
		case bevBrownoutStart:
			in.stats.BackendBrownouts++
			in.note(KindBackendBrownout, 0)
			in.eng.SetSpeed(factor)
			if in.hooks.Degraded != nil {
				in.hooks.Degraded(factor)
			}
		case bevBrownoutEnd:
			in.eng.SetSpeed(1)
			if in.hooks.Restored != nil {
				in.hooks.Restored()
			}
		}
	})
}

// Crashed reports whether the plan's crash event has fired — the run is
// dead and its driver must stop as if the process were killed.
func (in *Injector) Crashed() bool { return in.crashed }

// DisarmCrash makes the plan's run-killing crash a no-op. The crash event
// stays scheduled, so every later event draws the same clock sequence
// number it drew in the run that crashed; a resumed run uses this to
// continue past the instant its predecessor died at.
func (in *Injector) DisarmCrash() { in.crashDisarmed = true }

// armSlowdown schedules one engine-speed transition.
func (in *Injector) armSlowdown(at float64, factor float64, isStart bool) {
	in.clock.At(at, func() {
		if isStart {
			in.stats.Slowdowns++
			in.note(KindSlowdown, 0)
		}
		in.eng.SetSpeed(factor)
	})
}

// abortRateAt returns the effective abort probability for a class at time
// t: the largest of the base rate and any active burst covering the
// class.
//
//qlint:hotpath
func (in *Injector) abortRateAt(t float64, class engine.ClassID) float64 {
	rate := 0.0
	if uint(class) < uint(len(in.abortRate)) {
		rate = in.abortRate[class]
	}
	for _, b := range in.plan.AbortBursts {
		if b.Window.Contains(t) && (b.Class == 0 || b.Class == class) && b.Rate > rate {
			rate = b.Rate
		}
	}
	return rate
}

// maybeScheduleAbort draws the query's fate at execution start; a doomed
// query gets an abort event at a uniform fraction of its stand-alone
// execution time, so the abort always lands mid-flight (a query running
// at rate <= 1 cannot finish before Work seconds have passed).
func (in *Injector) maybeScheduleAbort(q *engine.Query) {
	rate := in.abortRateAt(in.clock.Now(), q.Class)
	if rate <= 0 || in.src.Float64() >= rate {
		return
	}
	delay := in.src.Range(0.2, 0.9) * q.Demand.Work
	id, attempt, class := q.ID, q.Attempt, q.Class
	// A stale fire (the attempt already finished, timed out, or was
	// retried) must be a no-op; the id/attempt guard decides it, because
	// the object itself may have been recycled into a different live
	// query by the engine's freelist after the doomed attempt ended.
	in.clock.After(delay, func() {
		if q.ID != id || q.Attempt != attempt {
			return
		}
		if in.eng.Abort(q) {
			in.stats.Aborts++
			in.note(KindAbort, class)
		}
	})
}

// DropSnapshot reports whether the snapshot poll at time t is lost —
// part of the Query Scheduler's MonitorFaultInjector contract. Outage
// windows drop deterministically; otherwise SnapshotDrop draws from the
// injector's RNG.
func (in *Injector) DropSnapshot(t simclock.Time) bool {
	if in.inBackendDropout(t) {
		return true
	}
	for _, w := range in.plan.SnapshotOutages {
		if w.Contains(t) {
			in.stats.SnapshotDrops++
			in.note(KindSnapshotDrop, 0)
			return true
		}
	}
	if in.plan.SnapshotDrop > 0 && in.src.Float64() < in.plan.SnapshotDrop {
		in.stats.SnapshotDrops++
		in.note(KindSnapshotDrop, 0)
		return true
	}
	return false
}

// DropHarvest reports whether the whole control-interval harvest at time
// t is lost (windows only; losing an entire harvest is an outage-class
// event, not per-poll noise).
func (in *Injector) DropHarvest(t simclock.Time) bool {
	if in.inBackendDropout(t) {
		return true
	}
	for _, w := range in.plan.HarvestOutages {
		if w.Contains(t) {
			in.stats.HarvestDrops++
			in.note(KindHarvestDrop, 0)
			return true
		}
	}
	return false
}

// inBackendDropout reports whether this injector's backend is inside a
// dropout window at t — all of its monitor reporting (snapshot polls
// and whole harvests) is severed.
func (in *Injector) inBackendDropout(t simclock.Time) bool {
	for _, o := range in.plan.BackendDropouts {
		if o.Backend == in.backendID && o.Window.Contains(t) {
			in.stats.BackendDropouts++
			in.note(KindBackendDropout, 0)
			return true
		}
	}
	return false
}

// RefreshCost is the corrected timeron estimate for a retried query:
// the original estimate scaled by the class's misestimation factor —
// what a re-cost after a failed attempt would reveal. With no
// misestimation it returns the original cost unchanged. Wire it as
// patroller.RetryPolicy.RefreshCost so retries are admitted under their
// true footprint.
func (in *Injector) RefreshCost(q *engine.Query) float64 {
	if m, ok := in.plan.Misestimate[q.Class]; ok && m > 0 {
		return q.Cost * m
	}
	return q.Cost
}
