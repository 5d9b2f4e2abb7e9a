// Package experiment assembles complete testbeds — engines, workloads,
// controllers, metrics — and runs the paper's experiments. Every figure in
// the paper's evaluation section has a runner here; cmd/qsim and the
// benchmarks in bench_test.go are thin wrappers over this package.
package experiment

import (
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Mode selects the workload controller under test.
type Mode = backend.Mode

// Controller modes, matching the paper's three experiment configurations.
const (
	// NoControl exerts nothing beyond the system cost limit (Figure 4).
	NoControl = backend.NoControl
	// QPPriority is static DB2 QP control: cost groups plus class
	// priorities (Figure 5).
	QPPriority = backend.QPPriority
	// QPNoPriority is DB2 QP group control without priorities; the paper
	// notes its results match NoControl.
	QPNoPriority = backend.QPNoPriority
	// QueryScheduler is the paper's dynamic workload adaptation
	// (Figures 6 and 7).
	QueryScheduler = backend.QueryScheduler
)

// SystemCostLimit is the experimentally determined healthy operating
// point (timerons) — the paper's 30,000. The saturation experiment (E0)
// regenerates the curve this value is read from.
const SystemCostLimit = 30000

// Rig is one fully wired testbed: N ≥ 1 backends on one shared clock,
// driven by one client pool. A single-engine run is a rig with one
// backend.
type Rig struct {
	Clock *simclock.Clock
	// Backends is the roster in ID order.
	Backends []*backend.Instance
	// Router routes every query to a backend; nil with one backend.
	Router *router.Router
	// Planner splits the fleet's cost budget across backends; set only
	// on Query Scheduler runs with two or more backends.
	Planner *router.Planner
	Pool    *workload.Pool
	Classes []*workload.Class
	OLAPSet *workload.Set
	OLTPSet *workload.Set
	Sched   workload.Schedule
	// Collector is the run's one period × class view: every backend's
	// engine folds into it.
	Collector *metrics.Collector
	// Eng, Pat and QS are backend 1's stack (Pat and QS once a
	// controller is attached; QS in Query Scheduler mode only).
	Eng *engine.Engine
	Pat *patroller.Patroller
	QS  *core.QueryScheduler
	// Faults holds the per-backend fault injectors in roster order (nil
	// when the run has no fault plan).
	Faults []*fault.Injector
	// Plans records every fleet budget split the planner made.
	Plans []router.FleetPlan
}

// OLAPClassIDs returns the IDs of the rig's OLAP classes.
func (r *Rig) OLAPClassIDs() []engine.ClassID {
	var ids []engine.ClassID
	for _, c := range r.Classes {
		if c.Kind == workload.OLAP {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// OLTPClass returns the rig's OLTP class (nil if none).
func (r *Rig) OLTPClass() *workload.Class {
	for _, c := range r.Classes {
		if c.Kind == workload.OLTP {
			return c
		}
	}
	return nil
}

// NewRig builds the paper's testbed: a simulated DB2-like engine, the
// TPC-H-like and TPC-C-like template sets in separate databases, the three
// service classes, and enough parked clients to cover the schedule. No
// controller is attached yet.
func NewRig(seed uint64, sched workload.Schedule) *Rig {
	return newRig(seed, sched, workload.PaperClasses(), nil)
}

// newRig builds the roster (nil specs = one paper-default backend), the
// template sets, the pool with every client seeded from one rng stream,
// and the collector. The order is load-bearing: it fixes the order in
// which clock events and listeners are registered.
func newRig(seed uint64, sched workload.Schedule, classes []*workload.Class, specs []backend.Spec) *Rig {
	if len(specs) == 0 {
		specs = backend.DefaultSpecs(1)
	}
	r := &Rig{Clock: simclock.New(), Classes: classes, Sched: sched}
	engines := make([]*engine.Engine, len(specs))
	roster := make([]backend.Backend, len(specs))
	for i, spec := range specs {
		b := backend.New(i+1, spec, r.Clock)
		r.Backends = append(r.Backends, b)
		engines[i], roster[i] = b.Eng, b
	}
	r.Eng = engines[0]

	model := optimizer.DefaultModel()
	r.OLAPSet = workload.NewSet(optimizer.New(model, workload.TPCHCatalog()), workload.TPCHTemplates())
	r.OLTPSet = workload.NewSet(optimizer.New(model, workload.TPCCCatalog()), workload.TPCCTemplates())

	if r.fleet() {
		r.Router = router.New(roster, router.DefaultScorers())
		r.Pool = workload.NewRoutedPool(r.Router, engines)
	} else {
		// No router: scoring one backend would only add hot-path work.
		r.Pool = workload.NewPool(r.Eng)
	}
	src := rng.New(seed)
	maxClients := sched.MaxClients()
	for _, c := range classes {
		set := r.OLAPSet
		if c.Kind == workload.OLTP {
			set = r.OLTPSet
		}
		r.Pool.AddClients(c, set, maxClients[c.ID], src)
	}

	r.Collector = metrics.NewCollector(engines[0], classes, sched)
	for _, e := range engines[1:] {
		r.Collector.Attach(e)
	}
	return r
}

// fleet reports whether the rig has two or more backends.
func (r *Rig) fleet() bool { return len(r.Backends) > 1 }

// SampleOLAPCosts draws a cost sample from the rig's OLAP workload — what
// an administrator would mine from QP's historical control tables to set
// the group thresholds.
func (r *Rig) SampleOLAPCosts(n int, seed uint64) []float64 {
	src := rng.New(seed)
	costs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		_, cost, _ := r.OLAPSet.Generate(src)
		costs = append(costs, cost)
	}
	return costs
}

// AttachController wires the given mode's controller onto every backend.
// qsCfg customizes the Query Scheduler (pass nil for the paper
// defaults); in the static modes only its SystemCostLimit is read. The
// static policies split the limit equally across backends, the split a
// fleet planner starts from. Each scheduler's monitor drops snapshots
// and harvests through its own backend's fault injector.
func (r *Rig) AttachController(mode Mode, qsCfg *core.Config) {
	qc := core.DefaultConfig()
	qc.SystemCostLimit = SystemCostLimit
	if qsCfg != nil {
		qc = *qsCfg
	}
	limit := qc.SystemCostLimit
	if limit <= 0 {
		limit = SystemCostLimit
	}
	ctl := backend.Control{
		Mode:    mode,
		Classes: r.Classes,
		Limit:   limit / float64(len(r.Backends)),
	}
	if mode == QPPriority || mode == QPNoPriority {
		ctl.Thresholds = patroller.ThresholdsFromSample(r.SampleOLAPCosts(4096, 99))
	}
	if oltp := r.OLTPClass(); oltp != nil {
		// Every monitor consumes the IDs before its poll returns, so all
		// backends can share one buffer.
		id := oltp.ID
		var buf []engine.ClientID
		ctl.OLTPClients = func() []engine.ClientID {
			buf = r.Pool.AppendActiveClients(buf[:0], id)
			return buf
		}
	}
	for i, b := range r.Backends {
		ctl.QS = qc
		if r.Faults != nil {
			ctl.QS.MonitorFaults = r.Faults[i]
		}
		b.AttachController(ctl)
	}
	r.Pat, r.QS = r.Backends[0].Pat, r.Backends[0].QS
}

// Run installs the schedule and runs the simulation to the end of the
// last period.
func (r *Rig) Run() {
	r.Sched.Install(r.Clock, r.Pool, nil)
	r.Clock.RunUntil(r.Sched.Duration())
}

// buildRig runs a mixed run's construction sequence: rig, fault
// injectors, controllers, retry policies, the fleet planner,
// observability, and the failover wiring (which needs both) — in that
// order. A fresh run and a resumed one both build through here.
// mitigate false turns off the fleet's failover response, E15's
// no-mitigation arm: backend crashes still stall their engines, but the
// router is never told (no re-dispatch, no scoring removal) and the
// planner neither re-splits the budget away from the dead backend nor
// migrates demand on infeasibility.
func buildRig(cfg MixedConfig, mitigate bool) (*Rig, *runObs, error) {
	r := newRig(cfg.Seed, cfg.Sched, cfg.classes(), cfg.Backends)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		for _, b := range r.Backends {
			var inj *fault.Injector
			if r.fleet() {
				inj = fault.NewBackendInjector(*cfg.Faults, r.Clock, b.ID())
			} else {
				// The plan's own seed: the single-engine stream, not a per-ID one.
				inj = fault.NewInjector(*cfg.Faults, r.Clock)
			}
			inj.AttachEngine(b.Eng)
			r.Faults = append(r.Faults, inj)
		}
	}
	r.AttachController(cfg.Mode, cfg.QS)
	if cfg.Retry != nil {
		for i, b := range r.Backends {
			rp := *cfg.Retry
			if rp.RefreshCost == nil && r.Faults != nil {
				rp.RefreshCost = r.Faults[i].RefreshCost
			}
			b.Pat.SetRetryPolicy(&rp)
		}
	}
	if r.Router != nil && r.QS != nil {
		// The per-backend control interval is the fleet planning
		// interval: read it back validated from an attached scheduler
		// rather than trusting the raw config.
		qc := r.QS.Config()
		r.Planner = router.StartPlanner(r.Clock, r.Router, r.Backends, router.PlannerConfig{
			Interval: qc.ControlInterval,
			Total:    qc.SystemCostLimit,
			// Migration-before-shedding only arms on faulted, mitigated
			// runs.
			Migrate: r.Faults != nil && mitigate,
		})
		r.Planner.OnPlan(func(fp router.FleetPlan) { r.Plans = append(r.Plans, fp) })
	}
	o, err := attachObs(r, cfg)
	if err != nil {
		return r, &runObs{}, err
	}
	if mitigate {
		wireFleetMitigation(r, o)
	}
	return r, o, nil
}

// wireFleetMitigation installs the failover response: the injectors'
// backend-scoped transitions drive the router's health model, and every
// availability or mitigation event lands in the decision log as a fleet
// record. Without a router there is nothing to fail over to. An
// unmitigated run does not call it — crashes still stall their engines
// (capacity is really lost), but the router is never told and the
// planner keeps feeding the dead backend its demand-weighted share; the
// decision log then carries no fleet records at all, which is itself
// the signature of the control arm.
func wireFleetMitigation(r *Rig, o *runObs) {
	if r.Router == nil || r.Faults == nil {
		return
	}
	note := func(fr decisionlog.FleetRecord) {
		if o.dlog != nil {
			fr.T = float64(r.Clock.Now())
			o.dlog.NoteFleet(fr)
		}
	}
	for i, inj := range r.Faults {
		id := r.Backends[i].ID()
		inj.SetFleetHooks(fault.FleetHooks{
			Down: func() {
				moved := r.Router.MarkDown(id)
				note(decisionlog.FleetRecord{Event: "failover", Backend: id, Moved: moved})
			},
			Up: func() {
				r.Router.MarkUp(id)
				note(decisionlog.FleetRecord{Event: "recover", Backend: id})
			},
			Degraded: func(f float64) {
				r.Router.MarkDegraded(id, f)
				note(decisionlog.FleetRecord{Event: "degraded", Backend: id, Factor: f})
			},
			Restored: func() {
				r.Router.ClearDegraded(id)
				note(decisionlog.FleetRecord{Event: "restored", Backend: id})
			},
		})
	}
	if o.dlog != nil && r.Planner != nil {
		dw := o.dlog
		r.Planner.OnDecision(func(d router.FleetDecision) {
			dw.NoteFleet(decisionlog.FleetRecord{
				T:       float64(d.Time),
				Event:   d.Event,
				Backend: d.Backend,
				Class:   int(d.Class),
				Target:  d.Target,
			})
		})
	}
}

// backendsMeta resolves the roster into the trace/decision-log header
// entry: 1-based ID, label, and resolved capacities. A one-backend rig
// has no roster to tell apart, so its headers carry none.
func backendsMeta(r *Rig) []trace.BackendMeta {
	if !r.fleet() {
		return nil
	}
	out := make([]trace.BackendMeta, len(r.Backends))
	for i, b := range r.Backends {
		ec := b.Spec().EngineConfig()
		out[i] = trace.BackendMeta{ID: b.ID(), Name: b.Name(), CPU: ec.CPUCapacity, IO: ec.IOCapacity}
	}
	return out
}
