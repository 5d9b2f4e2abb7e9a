// Package router is the fleet's routing tier: one routing decision per
// submitted query, computed from orthogonal, independently-evaluated
// scorers combined by weighted argmax with deterministic tie-breaking.
//
// The router sits between the client pool and the backends — it
// implements the pool's Submitter contract, so the closed-loop clients
// are oblivious to how many engines exist. Scoring reads only
// instantaneous backend signals (queue depth, load, class affinity),
// once per backend per query; nothing about the decision depends on map iteration or wall time, so
// a fleet run is as deterministic as a single-engine one.
package router

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/engine"
)

// Scorer names one term of a backend's routing score. Higher is
// better; every term is finite and non-negative. The set is closed:
// Submit reads each backend's Signals once per query and combines the
// weighted terms with a switch, with no call per (scorer, backend) pair.
type Scorer uint8

// The scorers.
const (
	// QueueDepth prefers backends with shorter admission queues: a
	// backend holding h queries scores 1/(1+h).
	QueueDepth Scorer = iota + 1
	// Load prefers lightly loaded backends: a backend at utilization u
	// (demand over capacity, busier station) scores 1/(1+u). Capacity
	// heterogeneity is already folded in — a slow box reaches u=1
	// sooner, so it repels load earlier than a fast one.
	Load
	// Affinity applies the backend spec's per-class routing bias: a
	// backend with affinity w for the query's class scores w (1 when
	// unspecified).
	Affinity
)

// Name identifies the scorer in traces.
func (s Scorer) Name() string {
	switch s {
	case QueueDepth:
		return "queue"
	case Load:
		return "load"
	case Affinity:
		return "affinity"
	default:
		return fmt.Sprintf("Scorer(%d)", uint8(s))
	}
}

// term is the scorer's value for a backend showing sig.
//
//qlint:hotpath
func (s Scorer) term(sig backend.Signals) float64 {
	switch s {
	case QueueDepth:
		return 1 / (1 + float64(sig.Queue))
	case Load:
		return 1 / (1 + sig.Load)
	default:
		return sig.Affinity
	}
}

// Weighted pairs a scorer with its weight in the combined score.
type Weighted struct {
	Scorer Scorer
	Weight float64
}

// DefaultScorers is the standard policy: queue depth and load dominate,
// affinity breaks structural preferences.
func DefaultScorers() []Weighted {
	return []Weighted{
		{Scorer: QueueDepth, Weight: 1},
		{Scorer: Load, Weight: 1},
		{Scorer: Affinity, Weight: 0.5},
	}
}

// Decision is one routing outcome: the chosen backend and the combined
// score of every candidate, in roster order. The Scores slice is owned
// by the router and valid only during the OnRoute callback.
type Decision struct {
	// Backend is the chosen backend's 1-based ID.
	Backend int
	// Scores[i] is roster backend i's combined weighted score.
	Scores []float64
}

// Router routes every submitted query to one backend. It implements
// the workload pool's Submitter contract.
type Router struct {
	backends []backend.Backend
	scorers  []Weighted
	// shared is roster engine 1, whose query freelist every roster
	// engine shares, so AcquireQuery draws where any engine recycles.
	shared *engine.Engine

	// routed / cost are the per-backend tallies (roster order): total
	// queries ever routed, and routed timeron cost since the fleet
	// planner last harvested it — the demand signal the hierarchical
	// budget split is proportional to.
	routed []int64
	cost   []float64

	// Health model (roster order): a down backend is excluded from
	// scoring entirely; a degraded one keeps routing (its load signal
	// already repels queries) but carries its brownout factor so the
	// fleet planner can discount its demand. migrations maps a class to
	// the 1-based backend currently being drained of that class's
	// demand (the migration-before-shedding policy).
	down       []bool
	degraded   []float64
	migrations map[engine.ClassID]int

	onRoute     []func(q *engine.Query, d Decision)
	onReroute   []func(q *engine.Query, from, to int)
	scratch     []float64
	lastBackend int
}

// New builds a router over the backends (roster order = tie-break
// order) with the given scoring policy, and joins every backend's
// engine to one query freelist (see AcquireQuery).
func New(backends []backend.Backend, scorers []Weighted) *Router {
	if len(backends) == 0 {
		panic("router: no backends")
	}
	if len(scorers) == 0 {
		panic("router: no scorers")
	}
	for _, ws := range scorers {
		if ws.Scorer < QueueDepth || ws.Scorer > Affinity || ws.Weight <= 0 {
			panic(fmt.Sprintf("router: invalid weighted scorer %+v", ws))
		}
	}
	shared := backends[0].Engine()
	for _, b := range backends[1:] {
		b.Engine().ShareFreelist(shared)
	}
	return &Router{
		backends: backends,
		scorers:  scorers,
		shared:   shared,
		routed:   make([]int64, len(backends)),
		cost:     make([]float64, len(backends)),
		down:     make([]bool, len(backends)),
		degraded: make([]float64, len(backends)),
		scratch:  make([]float64, len(backends)),
	}
}

// OnRoute registers a routing-decision listener (trace/decision-log
// wiring). Listeners fire after the query has been submitted to the
// chosen backend, so its engine-assigned ID is already set.
func (r *Router) OnRoute(fn func(q *engine.Query, d Decision)) {
	r.onRoute = append(r.onRoute, fn)
}

// AcquireQuery hands out a zeroed query from the fleet's one freelist.
// Whichever engine the query finishes on recycles it to the same list.
//
//qlint:hotpath
func (r *Router) AcquireQuery() *engine.Query { return r.shared.AcquireQuery() }

// Submit scores every healthy backend for the query, routes it to the
// argmax (lowest roster index wins ties), and fires the routing
// listeners. Each backend's signals are read once; the weighted terms
// are added in policy order, so a score is the same float sum whatever
// the signals' source. Down backends are excluded outright; a backend being
// drained of the query's class (an active migration) is skipped unless
// it is the only healthy choice left.
//
//qlint:hotpath
func (r *Router) Submit(q *engine.Query) {
	avoid := 0
	if len(r.migrations) > 0 {
		avoid = r.migrations[q.Class]
	}
	best := -1
	for i, b := range r.backends {
		if r.down[i] {
			r.scratch[i] = 0
			continue
		}
		sig := b.Signals(q.Class)
		s := 0.0
		for _, ws := range r.scorers {
			s += ws.Weight * ws.Scorer.term(sig)
		}
		r.scratch[i] = s
		if i+1 == avoid {
			continue // drained for this class; scored for the log only
		}
		if best < 0 || s > r.scratch[best] {
			best = i
		}
	}
	if best < 0 && avoid > 0 && !r.down[avoid-1] {
		best = avoid - 1 // the migration source is the only healthy backend
	}
	if best < 0 {
		panic("router: no healthy backend to route to")
	}
	r.routed[best]++
	r.cost[best] += q.Cost
	b := r.backends[best]
	r.lastBackend = b.ID()
	b.Engine().Submit(q)
	if len(r.onRoute) > 0 {
		d := Decision{Backend: r.lastBackend, Scores: r.scratch}
		for _, fn := range r.onRoute {
			fn(q, d)
		}
	}
}

// Routed returns the total queries routed to each backend, roster
// order. The slice is a copy.
func (r *Router) Routed() []int64 {
	out := make([]int64, len(r.routed))
	copy(out, r.routed)
	return out
}

// TakeCost appends the routed timeron cost per backend since the last
// call to dst[:0] and resets the accumulators — the fleet planner's
// per-interval demand harvest, into its own reused buffer.
func (r *Router) TakeCost(dst []float64) []float64 {
	dst = append(dst[:0], r.cost...)
	for i := range r.cost {
		r.cost[i] = 0
	}
	return dst
}
