// The router's backend health model — the fleet's failover mechanism.
//
// A backend dies (MarkDown) and the router removes it from scoring and
// deterministically re-dispatches everything it held to the survivors:
// admission-held queries in arrival order, then executing queries by
// ID, then pending retries by event sequence. Each re-dispatch is an
// ordinary Submit, so it consumes clock sequence numbers exactly the
// same way on every run — byte-identity under -parallel N and across
// -resume (which re-simulates) follows from the order being a pure
// function of simulation state. A recovered backend (MarkUp) rejoins scoring
// empty; the fleet planner's min-share floor is its warm-up budget
// until routed demand rebuilds its EWMA.
package router

import (
	"fmt"
	"sort"

	"repro/internal/engine"
)

// OnReroute registers a failover re-dispatch listener, fired once per
// evacuated query after it lands on a survivor: (query, dead backend's
// 1-based ID, new backend's 1-based ID). The trace layer uses this to
// emit re-route events.
func (r *Router) OnReroute(fn func(q *engine.Query, from, to int)) {
	r.onReroute = append(r.onReroute, fn)
}

// MarkDown fails backend id (1-based): it leaves the scoring set and
// everything it held is re-dispatched to the survivors in evacuation
// order. Returns the number of queries moved. Marking the last healthy
// backend down panics — a fleet with nowhere to route cannot continue
// deterministically. Already-down backends are a no-op.
func (r *Router) MarkDown(id int) int {
	i := r.rosterIndex(id)
	if r.down[i] {
		return 0
	}
	r.down[i] = true
	if r.HealthyCount() == 0 {
		panic("router: every backend is down")
	}
	evac := r.backends[i].Evacuate()
	for _, q := range evac {
		// The bump marks the re-dispatch as a continuation of the same
		// logical query (monitors and collectors skip Attempt > 0
		// arrivals) and invalidates any stale per-attempt fault events
		// still armed against the dead backend.
		q.Attempt++
		r.Submit(q)
		for _, fn := range r.onReroute {
			fn(q, id, r.lastBackend)
		}
	}
	return len(evac)
}

// MarkUp returns a recovered backend (1-based) to the scoring set. It
// rejoins empty — its queue-depth and load scores make it immediately
// attractive, and the planner's min-share floor gives it admission
// budget until demand rebuilds.
func (r *Router) MarkUp(id int) {
	r.down[r.rosterIndex(id)] = false
}

// MarkDegraded records a brownout factor in (0, 1) for backend id: the
// backend keeps routing, but the fleet planner discounts its demand by
// the factor when splitting the budget.
func (r *Router) MarkDegraded(id int, factor float64) {
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("router: degraded factor %v outside (0, 1)", factor))
	}
	r.degraded[r.rosterIndex(id)] = factor
}

// ClearDegraded ends backend id's brownout.
func (r *Router) ClearDegraded(id int) {
	r.degraded[r.rosterIndex(id)] = 0
}

// IsDown reports whether backend id (1-based) is out of the scoring set.
func (r *Router) IsDown(id int) bool { return r.down[r.rosterIndex(id)] }

// DegradedFactor returns backend id's brownout factor (0 = healthy).
func (r *Router) DegradedFactor(id int) float64 { return r.degraded[r.rosterIndex(id)] }

// HealthyCount returns the number of backends in the scoring set.
func (r *Router) HealthyCount() int {
	n := 0
	for _, d := range r.down {
		if !d {
			n++
		}
	}
	return n
}

// SetMigration drains class demand off backend source (1-based): new
// queries of the class route to the other healthy backends until the
// migration clears. One migration per class; setting again overwrites.
func (r *Router) SetMigration(class engine.ClassID, source int) {
	r.rosterIndex(source)
	if r.migrations == nil {
		r.migrations = make(map[engine.ClassID]int)
	}
	r.migrations[class] = source
}

// ClearMigration ends the class's drain, if any.
func (r *Router) ClearMigration(class engine.ClassID) {
	delete(r.migrations, class)
}

// MigrationSource returns the backend being drained of the class
// (0 = no active migration).
func (r *Router) MigrationSource(class engine.ClassID) int {
	return r.migrations[class]
}

// MigrationRecord is one active class drain, iterated by the planner.
type MigrationRecord struct {
	Class  engine.ClassID
	Source int
}

// Migrations returns the active drains sorted by class — the
// deterministic iteration order for planner policy.
func (r *Router) Migrations() []MigrationRecord {
	if len(r.migrations) == 0 {
		return nil
	}
	out := make([]MigrationRecord, 0, len(r.migrations))
	for c, s := range r.migrations {
		out = append(out, MigrationRecord{Class: c, Source: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// rosterIndex converts a 1-based backend ID to its roster index,
// panicking on IDs outside the roster.
func (r *Router) rosterIndex(id int) int {
	if id < 1 || id > len(r.backends) {
		panic(fmt.Sprintf("router: backend ID %d outside roster of %d", id, len(r.backends)))
	}
	return id - 1
}
