// Package backend bundles one simulated engine with its admission-
// control stack — patroller, controller, per-backend metrics collector —
// behind a single handle the routing tier composes into a fleet. Every
// run is a fleet: a single-engine run is exactly one backend, and an
// N-backend run stands up N of them on one shared clock, each with its
// own capacity profile, and routes every query to one of them.
package backend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/patroller"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Spec is one backend's capacity profile and routing bias — the
// heterogeneous part of a fleet configuration.
type Spec struct {
	// Name labels the backend in traces, decision logs, and metrics.
	Name string
	// CPUCapacity / IOCapacity / ContentionAlpha override the engine's
	// defaults (zero = paper default), so a fleet can mix fast and slow
	// boxes.
	CPUCapacity     float64
	IOCapacity      float64
	ContentionAlpha float64
	// Affinity biases the router's class-affinity scorer toward this
	// backend for the listed classes. Unlisted classes score 1 (no
	// preference); values must be positive.
	Affinity map[engine.ClassID]float64
}

// EngineConfig resolves the spec into a full engine configuration,
// filling unset fields from the paper defaults.
func (s Spec) EngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	if s.CPUCapacity > 0 {
		cfg.CPUCapacity = s.CPUCapacity
	}
	if s.IOCapacity > 0 {
		cfg.IOCapacity = s.IOCapacity
	}
	if s.ContentionAlpha > 0 {
		cfg.ContentionAlpha = s.ContentionAlpha
	}
	return cfg
}

// DefaultSpecs returns n identical paper-default backends named b1..bn —
// the -backends N fleet. DefaultSpecs(1) is the paper's single engine.
func DefaultSpecs(n int) []Spec {
	out := make([]Spec, n)
	for i := range out {
		out[i].Name = fmt.Sprintf("b%d", i+1)
	}
	return out
}

// Signals are the instantaneous readings the router scores a backend by
// for one query.
type Signals struct {
	// Queue is the number of queries held at the backend's admission
	// gate (0 when no patroller is attached).
	Queue int
	// Load is the backend's current demand relative to capacity: the
	// busier station's utilization (may exceed 1 when oversubscribed).
	Load float64
	// Affinity is the spec's routing bias for the query's class (1 =
	// neutral).
	Affinity float64
}

// Backend is what the routing tier sees: identity, the engine queries
// execute on, and the signals the scorers read. Instance is the one
// concrete implementation; the interface keeps the router testable with
// stubs.
type Backend interface {
	// ID is the backend's 1-based fleet index.
	ID() int
	// Name is the spec's label.
	Name() string
	// Engine returns the backend's execution engine.
	Engine() *engine.Engine
	// Signals reads the backend's queue depth, load and affinity for a
	// query of the class — one call per backend per routed query.
	Signals(class engine.ClassID) Signals
	// Evacuate pulls every query this backend holds — admission-held,
	// executing, and awaiting retry — off the backend for failover
	// re-dispatch, in deterministic order (held queue in arrival order,
	// then executing queries by ID, then pending retries by event
	// sequence). Each returned query is reset to StateNew.
	Evacuate() []*engine.Query
}

// Instance is one concrete backend: an engine plus (once attached) its
// patroller, its Query Scheduler (Query Scheduler mode only), and its
// collector.
type Instance struct {
	id   int
	spec Spec
	// affinity[c] is the spec's bias for class c, 1 where unlisted;
	// classes past its end are unlisted too.
	affinity []float64

	Eng *engine.Engine
	Pat *patroller.Patroller
	QS  *core.QueryScheduler
	// Collector is the backend-local period × class view — what landed
	// here. With one backend it is also the run's global collector.
	Collector *metrics.Collector
}

// New builds a backend's engine on the shared clock. The controller
// and the collector attach separately.
func New(id int, spec Spec, clock *simclock.Clock) *Instance {
	if id <= 0 {
		panic(fmt.Sprintf("backend: non-positive backend ID %d", id))
	}
	n := 0
	for class, w := range spec.Affinity {
		if w <= 0 {
			panic(fmt.Sprintf("backend: %s: non-positive affinity %v for class %d", spec.Name, w, class))
		}
		if class < 0 {
			panic(fmt.Sprintf("backend: %s: affinity for negative class %d", spec.Name, class))
		}
		n = max(n, int(class)+1)
	}
	affinity := make([]float64, n)
	for c := range affinity {
		affinity[c] = 1
	}
	for class, w := range spec.Affinity {
		affinity[class] = w
	}
	return &Instance{id: id, spec: spec, affinity: affinity, Eng: engine.New(spec.EngineConfig(), clock)}
}

// ID returns the backend's 1-based fleet index.
func (b *Instance) ID() int { return b.id }

// Name returns the spec's label.
func (b *Instance) Name() string { return b.spec.Name }

// Spec returns the backend's configuration.
func (b *Instance) Spec() Spec { return b.spec }

// Engine returns the backend's execution engine.
func (b *Instance) Engine() *engine.Engine { return b.Eng }

// Signals reads the queue depth, load and class affinity in one call.
//
//qlint:hotpath
func (b *Instance) Signals(class engine.ClassID) Signals {
	return Signals{Queue: b.QueueDepth(), Load: b.Load(), Affinity: b.Affinity(class)}
}

// QueueDepth returns the patroller's held-queue length.
//
//qlint:hotpath
func (b *Instance) QueueDepth() int {
	if b.Pat == nil {
		return 0
	}
	return b.Pat.HeldCount()
}

// Load returns the busier station's demand relative to capacity.
//
//qlint:hotpath
func (b *Instance) Load() float64 {
	cpu, io := b.Eng.Utilization()
	if io > cpu {
		return io
	}
	return cpu
}

// Affinity returns the spec's routing bias for a class (1 = neutral).
//
//qlint:hotpath
func (b *Instance) Affinity(class engine.ClassID) float64 {
	if uint(class) < uint(len(b.affinity)) {
		return b.affinity[class]
	}
	return 1
}

// Evacuate implements the failover drain: held queries first (arrival
// order), then executing queries (ID order, with their patroller rows
// closed), then pending retries (event-sequence order). The composite
// order is deterministic, so the survivors' submission sequence — and
// every event sequence number downstream of it — replays identically
// run to run, which a resume by re-simulation relies on.
func (b *Instance) Evacuate() []*engine.Query {
	var out []*engine.Query
	if b.Pat != nil {
		out = append(out, b.Pat.EvacuateHeld()...)
	}
	for _, q := range b.Eng.Evacuate() {
		if b.Pat != nil {
			b.Pat.ForgetActive(q.ID)
		}
		out = append(out, q)
	}
	if b.Pat != nil {
		out = append(out, b.Pat.EvacuateRetries()...)
	}
	return out
}

// Mode selects a backend's workload controller.
type Mode int

// Controller modes, matching the paper's three experiment configurations.
const (
	// NoControl exerts nothing beyond the system cost limit (Figure 4).
	NoControl Mode = iota
	// QPPriority is static DB2 QP control: cost groups plus class
	// priorities (Figure 5).
	QPPriority
	// QPNoPriority is DB2 QP group control without priorities; the paper
	// notes its results match NoControl.
	QPNoPriority
	// QueryScheduler is the paper's dynamic workload adaptation
	// (Figures 6 and 7).
	QueryScheduler
)

func (m Mode) String() string {
	switch m {
	case NoControl:
		return "no-control"
	case QPPriority:
		return "qp-priority"
	case QPNoPriority:
		return "qp-no-priority"
	case QueryScheduler:
		return "query-scheduler"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Control configures one backend's workload controller.
type Control struct {
	Mode    Mode
	Classes []*workload.Class
	// Limit is the static policies' total OLAP cost limit (timerons).
	Limit float64
	// Thresholds are the QP cost-group boundaries (QP modes only).
	Thresholds patroller.GroupThresholds
	// QS configures the Query Scheduler (QueryScheduler mode only).
	QS core.Config
	// OLTPClients lists the active OLTP clients the scheduler's monitor
	// polls; nil when the workload has no OLTP class.
	OLTPClients func() []engine.ClientID
}

// AttachController wires the backend's admission stack: a patroller
// over the OLAP classes and the mode's release policy. A Query Scheduler
// is started immediately (its dispatcher becomes the patroller's policy)
// and its monitor polls only this backend's engine, so each member of a
// fleet plans against what actually landed on it.
func (b *Instance) AttachController(c Control) {
	var olap []engine.ClassID
	for _, cl := range c.Classes {
		if cl.Kind == workload.OLAP {
			olap = append(olap, cl.ID)
		}
	}
	b.Pat = patroller.New(b.Eng, olap...)
	switch c.Mode {
	case NoControl:
		b.Pat.SetPolicy(patroller.SystemLimit{Limit: c.Limit})

	case QPPriority, QPNoPriority:
		pol := patroller.GroupPriority{
			TotalLimit:    c.Limit,
			Thresholds:    c.Thresholds,
			MaxConcurrent: patroller.DefaultGroupCaps(),
			Priority:      map[engine.ClassID]int{},
		}
		if c.Mode == QPPriority {
			// The paper sets Class 2's priority above Class 1's; in
			// general QP priorities follow class importance.
			for _, cl := range c.Classes {
				if cl.Kind == workload.OLAP {
					pol.Priority[cl.ID] = cl.Importance
				}
			}
		}
		b.Pat.SetPolicy(pol)

	case QueryScheduler:
		qs, err := core.New(c.QS, b.Eng, b.Pat, c.Classes, c.OLTPClients)
		if err != nil {
			panic(err)
		}
		b.QS = qs
		qs.Start()

	default:
		panic(fmt.Sprintf("backend: unknown mode %v", c.Mode))
	}
}
