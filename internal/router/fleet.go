// The hierarchical fleet planner: the top layer of the two-level
// budget split. Each interval it harvests the router's per-backend
// routed-cost demand, folds it into an EWMA, and re-targets every
// backend's SystemCostLimit proportionally — the per-backend Query
// Schedulers then run the existing per-class solver, unchanged,
// against their share. A one-backend run has no planner: its single
// scheduler already holds the whole budget.
package router

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/engine"
	"repro/internal/simclock"
)

// PlannerConfig tunes the fleet budget split.
type PlannerConfig struct {
	// Interval is the seconds between splits (typically the control
	// interval of the per-backend schedulers).
	Interval float64
	// Total is the global system cost budget to divide.
	Total float64
	// Alpha is the demand EWMA smoothing factor in (0, 1]; higher
	// tracks routed demand faster. Zero = DefaultAlpha.
	Alpha float64
	// MinShare is the budget fraction every backend keeps even with
	// zero routed demand, so an idle backend can still admit the first
	// queries routed its way. Zero = DefaultMinShare. It doubles as the
	// warm-up floor: a recovered backend rejoins with zeroed demand and
	// lives on this share until routing rebuilds its EWMA.
	MinShare float64
	// Migrate enables the migration-before-shedding policy: when a
	// surviving backend's solver reports an infeasible plan, the planner
	// drains the binding class to the least-loaded healthy peer instead
	// of letting the backend shed it. Off, the planner only re-splits
	// the budget (the mitigation-off fleet of the failover experiment).
	Migrate bool
}

// Planner defaults.
const (
	DefaultAlpha    = 0.3
	DefaultMinShare = 0.1
)

// FleetPlan records one budget split, for logging and tests.
type FleetPlan struct {
	Time simclock.Time
	// Demand[i] is roster backend i's smoothed routed-cost demand.
	Demand []float64
	// Limits[i] is the SystemCostLimit handed to roster backend i
	// (0 for a down backend: it gets no budget and no actuation).
	Limits []float64
}

// FleetDecision is one fleet-level control action beyond the routine
// budget split: a class migration starting or ending, or a shed verdict
// (infeasible with no migration target — repeated each tick the
// condition holds). The decision log persists these so qreport can
// attribute SLO misses to capacity loss.
type FleetDecision struct {
	Time  simclock.Time
	Event string // "migration", "migration-end", "shed"
	// Backend is the decision's subject (the infeasible source), 1-based.
	Backend int
	Class   engine.ClassID
	// Target is the backend receiving migrated demand (0 when n/a).
	Target int
}

// Planner re-splits the global budget across a fleet each interval.
type Planner struct {
	router   *Router
	backends []*backend.Instance
	cfg      PlannerConfig

	ewma       []float64
	ticker     *simclock.Ticker
	onPlan     []func(FleetPlan)
	onDecision []func(FleetDecision)

	// Per-tick scratch, roster order; dead between ticks.
	cost, weights, limits []float64
}

// StartPlanner arms the fleet budget split on the shared clock. The
// first split fires one interval in; until then every backend runs on
// the equal initial split applied here.
func StartPlanner(clock *simclock.Clock, r *Router, backends []*backend.Instance, cfg PlannerConfig) *Planner {
	if len(backends) == 0 {
		panic("router: planner with no backends")
	}
	if cfg.Interval <= 0 {
		panic(fmt.Sprintf("router: non-positive planner interval %v", cfg.Interval))
	}
	if cfg.Total <= 0 {
		panic(fmt.Sprintf("router: non-positive fleet budget %v", cfg.Total))
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		panic(fmt.Sprintf("router: planner alpha %v outside (0, 1]", cfg.Alpha))
	}
	if cfg.MinShare == 0 {
		cfg.MinShare = DefaultMinShare
	}
	if cfg.MinShare < 0 || cfg.MinShare*float64(len(backends)) >= 1 {
		panic(fmt.Sprintf("router: planner min share %v infeasible for %d backends", cfg.MinShare, len(backends)))
	}
	p := &Planner{
		router:   r,
		backends: backends,
		cfg:      cfg,
		ewma:     make([]float64, len(backends)),
		weights:  make([]float64, len(backends)),
		limits:   make([]float64, len(backends)),
	}
	// Equal initial split: no demand observed yet.
	equal := cfg.Total / float64(len(backends))
	for _, b := range backends {
		b.QS.SetSystemCostLimit(equal)
	}
	p.ticker = clock.StartTicker(cfg.Interval, p.tick)
	return p
}

// OnPlan registers a split listener.
func (p *Planner) OnPlan(fn func(FleetPlan)) { p.onPlan = append(p.onPlan, fn) }

// OnDecision registers a fleet-decision listener (migration/shed
// events; the decision-log wiring).
func (p *Planner) OnDecision(fn func(FleetDecision)) { p.onDecision = append(p.onDecision, fn) }

// tick is one fleet planning cycle: harvest routed demand, smooth,
// split the budget across the healthy backends proportionally with the
// min-share floor, re-target every live scheduler, and run the
// migration-before-shedding policy over the survivors' solver verdicts.
//
// Health awareness: a down backend's EWMA zeroes immediately — its
// demand is being served elsewhere now — so the whole budget moves to
// the survivors this same tick, and a later recovery starts from the
// min-share warm-up floor instead of a stale pre-crash share. A
// degraded (browned-out) backend keeps routing but its demand weight is
// discounted by the brownout factor: a box at quarter speed holding
// nominal demand earns a quarter of the budget pull, shifting admission
// capacity toward backends that can actually burn it.
func (p *Planner) tick() {
	p.cost = p.router.TakeCost(p.cost)
	cost, weights, limits := p.cost, p.weights, p.limits
	total := 0.0
	healthy := 0
	for i := range p.ewma {
		weights[i], limits[i] = 0, 0
		if p.router.IsDown(i + 1) {
			p.ewma[i] = 0
			continue
		}
		healthy++
		p.ewma[i] = (1-p.cfg.Alpha)*p.ewma[i] + p.cfg.Alpha*cost[i]
		weights[i] = p.ewma[i]
		if f := p.router.DegradedFactor(i + 1); f > 0 {
			weights[i] *= f
		}
		total += weights[i]
	}
	nh := float64(healthy)
	for i := range limits {
		if p.router.IsDown(i + 1) {
			continue // limit 0: no budget, no actuation
		}
		if total <= 0 {
			// Nothing routed anywhere yet: equal split over the living.
			limits[i] = p.cfg.Total / nh
			continue
		}
		// Proportional share with a floor: the floored fraction is
		// reserved equally, the remainder follows weighted demand.
		reserved := p.cfg.MinShare * nh
		share := p.cfg.MinShare + (1-reserved)*(weights[i]/total)
		limits[i] = p.cfg.Total * share
	}
	for i, b := range p.backends {
		if limits[i] > 0 {
			b.QS.SetSystemCostLimit(limits[i])
		}
	}
	if p.cfg.Migrate {
		p.migrate()
	}
	if len(p.onPlan) > 0 {
		// Listeners keep their plans (Rig.Plans), so each gets copies.
		plan := FleetPlan{Time: simclock.Time(p.clockNow()), Demand: append([]float64(nil), p.ewma...), Limits: append([]float64(nil), limits...)}
		for _, fn := range p.onPlan {
			fn(plan)
		}
	}
}

// migrate is the migration-before-shedding policy, run each tick over
// the survivors' latest solver verdicts. An infeasible backend's
// binding class is drained to the healthy peer with the least smoothed
// demand (lowest roster index on ties); the drain ends when the source
// plans feasibly again (or dies). Only when no healthy peer exists —
// the whole fleet is down to one box that still cannot meet its goals —
// does the planner concede a shed verdict, which it re-emits every tick
// the condition persists.
func (p *Planner) migrate() {
	for _, m := range p.router.Migrations() {
		if p.router.IsDown(m.Source) {
			p.router.ClearMigration(m.Class)
			p.decide(FleetDecision{Event: "migration-end", Backend: m.Source, Class: m.Class})
			continue
		}
		v, ok := p.backends[m.Source-1].QS.LastVerdict()
		if ok && !v.Held && !v.Infeasible {
			p.router.ClearMigration(m.Class)
			p.decide(FleetDecision{Event: "migration-end", Backend: m.Source, Class: m.Class})
		}
	}
	for i, b := range p.backends {
		if p.router.IsDown(i + 1) {
			continue
		}
		v, ok := b.QS.LastVerdict()
		if !ok || v.Held || !v.Infeasible {
			continue
		}
		class := v.Binding
		if class == 0 || p.router.MigrationSource(class) != 0 {
			continue // no binding class named, or a drain is already running
		}
		target := -1
		for j := range p.backends {
			if j == i || p.router.IsDown(j+1) {
				continue
			}
			if target < 0 || p.ewma[j] < p.ewma[target] {
				target = j
			}
		}
		if target < 0 {
			p.decide(FleetDecision{Event: "shed", Backend: i + 1, Class: class})
			continue
		}
		p.router.SetMigration(class, i+1)
		p.decide(FleetDecision{Event: "migration", Backend: i + 1, Class: class, Target: target + 1})
	}
}

// decide stamps and fans out one fleet decision.
func (p *Planner) decide(d FleetDecision) {
	d.Time = simclock.Time(p.clockNow())
	for _, fn := range p.onDecision {
		fn(d)
	}
}

// clockNow reads the shared clock through any backend's engine.
func (p *Planner) clockNow() float64 {
	return float64(p.backends[0].Eng.Clock().Now())
}
