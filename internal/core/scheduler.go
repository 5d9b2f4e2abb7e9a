package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/patroller"
	"repro/internal/perfmodel"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/utility"
	"repro/internal/workload"
)

// PlanRecord is one control interval's outcome: the measurements the
// planner saw and the scheduling plan it chose. The sequence of records
// regenerates the paper's Figure 7.
type PlanRecord struct {
	Time        simclock.Time
	Measurement Measurement
	Utility     float64
	OLTPSlope   float64
	// Classes is the plan as a vector: one row per planned class, sorted
	// by class ID, carrying the chosen limit and what the planner knew
	// about the class when it chose it.
	Classes []ClassPlan
	// Held marks a degraded tick: the harvest (or the entire OLTP view)
	// was fault-dropped and the planner kept the previous plan instead of
	// feeding zeros to the models. Its rows carry only the held limits.
	Held bool
	// Infeasible reports that the chosen plan is predicted to miss at
	// least one class's goal — the solver found no plan meeting all
	// goals. Binding names the class driving it: an unreachable goal
	// wins over a merely-conflicting one, a larger shortfall over a
	// smaller, and the lower ID breaks ties. Zero when feasible or held.
	Infeasible bool
	Binding    engine.ClassID
	// Search counts the Performance Solver's work for this tick —
	// candidates considered, improving moves, runner-up utility. Zero on
	// held ticks and under solvers that are not a solver.Introspector.
	Search solver.Search
}

// ClassPlan is one class's row of a PlanRecord. Every field but ID and
// Limit is zero on held ticks: the degraded measurement fed no model and
// no SLO accounting.
type ClassPlan struct {
	ID engine.ClassID
	// Limit is the class cost limit the plan actuates (the OLTP class's
	// is virtual: it is not intercepted).
	Limit float64
	// Workload is the detector's characterization at planning time.
	Workload detect.Characterization
	// Predicted is the performance the class's model forecast for the
	// coming interval at Limit (velocity for OLAP classes, mean response
	// time for the OLTP class). Comparing it against the next record's
	// Measurement yields the model's prediction error.
	Predicted float64
	// Provenance records which performance model produced Predicted and
	// the anchor it extrapolated from.
	Provenance Provenance
	// Ceiling is the forecast at the class's corner allocation — all
	// budget above the other classes' minimums, the most the system could
	// give it.
	Ceiling float64
	// GoalMet reports whether Predicted meets the class goal; Reachable
	// whether Ceiling does (false: unreachable even with the whole spare
	// budget). Shortfall is the normalized goal miss at Limit, 0 when met.
	GoalMet   bool
	Reachable bool
	Shortfall float64
	// Attainment and BurnRate carry the scheduler's SLO accounting after
	// this tick's measurement folded in: the cumulative goal-attainment
	// ratio and the error-budget burn rate over the sliding window.
	Attainment float64
	BurnRate   float64
}

// Provenance identifies the performance model behind one class's
// prediction: the model's name plus the anchor measurement and the cost
// limit that anchor was measured under.
type Provenance struct {
	Model       string
	Anchor      float64
	AnchorLimit float64
}

// ProvenanceIdle marks an idle OLAP class: no model ran, the prediction
// is the ideal velocity 1 at any limit.
const ProvenanceIdle = "idle"

// Class returns class id's row; false when the plan has none.
func (r PlanRecord) Class(id engine.ClassID) (ClassPlan, bool) {
	for _, row := range r.Classes {
		if row.ID == id {
			return row, true
		}
	}
	return ClassPlan{}, false
}

// Clone returns a deep copy of the record; callers may hold or mutate it
// without aliasing the scheduler's rows.
func (r PlanRecord) Clone() PlanRecord {
	r.Measurement = r.Measurement.Clone()
	r.Classes = slices.Clone(r.Classes)
	return r
}

// QueryScheduler wires Monitor, Dispatcher, Scheduling Planner, and
// Performance Solver around a Query Patroller, adapting a mixed workload
// to its SLOs. A query's service class is the class tag it was submitted
// with.
type QueryScheduler struct {
	cfg Config
	eng *engine.Engine
	pat *patroller.Patroller

	classes   []*workload.Class
	oltpClass *workload.Class
	// byID is classes sorted by ID: the row order of every PlanRecord,
	// of the solver problem, of limits, and of the monitor's and the
	// instruments' per-class state. idx maps a class ID to its row.
	byID []*workload.Class
	idx  workload.ClassIndex

	mon *monitor
	// predictors holds each row's performance model, indexed like byID.
	predictors []perfmodel.Predictor
	// oltpLinear is the linear OLTP model whose slope every PlanRecord
	// carries, whichever OLTP model predicts.
	oltpLinear *perfmodel.OLTPResponse
	detector   *detect.Detector

	limits    solver.Plan // indexed like byID
	ticker    *simclock.Ticker
	history   []PlanRecord
	planHooks []func(PlanRecord)

	// SLO accounting, fed one observation per measured (non-held,
	// non-dropped) control tick and surfaced through PlanRecord and the
	// qs_slo_* metrics. Indexed like byID.
	sloObserved []int
	sloMet      []int
	sloWin      []*obs.SLOWindow
	instr       *schedObs
	running     bool
	heldTicks   int // consecutive degraded ticks holding the plan

	// Dispatch scratch: per-row executing cost/count, reset and refilled
	// on every SelectReleases call so the per-poke hot path allocates
	// nothing.
	dispCost   []float64
	dispCount  []int
	releaseOut []engine.QueryID
}

// New builds a Query Scheduler for the given classes. At most one class
// may be OLTP-kind (the paper's setup); it is left unintercepted and
// controlled indirectly. oltpClients must return the currently active
// OLTP client connections for snapshot sampling (nil is allowed when there
// is no OLTP class).
func New(cfg Config, eng *engine.Engine, pat *patroller.Patroller,
	classes []*workload.Class, oltpClients func() []engine.ClientID) (*QueryScheduler, error) {

	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("core: no service classes")
	}
	qs := &QueryScheduler{
		cfg:      cfg,
		eng:      eng,
		pat:      pat,
		classes:  classes,
		detector: detect.New(),
	}
	oltp, lin, err := perfmodel.NewOLTP(cfg.OLTP)
	if err != nil {
		return nil, err
	}
	qs.oltpLinear = lin
	for _, c := range classes {
		switch c.Kind {
		case workload.OLAP:
			if !pat.Manages(c.ID) {
				return nil, fmt.Errorf("core: OLAP class %d is not managed by the patroller", c.ID)
			}
		case workload.OLTP:
			if qs.oltpClass != nil {
				return nil, fmt.Errorf("core: more than one OLTP class")
			}
			if pat.Manages(c.ID) {
				return nil, fmt.Errorf("core: OLTP class %d must not be intercepted (overhead)", c.ID)
			}
			qs.oltpClass = c
		default:
			return nil, fmt.Errorf("core: class %d has unknown kind %d", c.ID, c.Kind)
		}
		if c.Goal.Metric != c.Kind.GoalMetric() {
			return nil, fmt.Errorf("core: %s class %d has a %s goal", c.Kind, c.ID, c.Goal.Metric)
		}
	}
	if qs.oltpClass != nil && oltpClients == nil {
		return nil, fmt.Errorf("core: OLTP class present but no client source for snapshots")
	}
	qs.byID = slices.Clone(classes)
	slices.SortFunc(qs.byID, func(a, b *workload.Class) int { return cmp.Compare(a.ID, b.ID) })
	for i := 1; i < len(qs.byID); i++ {
		if qs.byID[i].ID == qs.byID[i-1].ID {
			return nil, fmt.Errorf("core: duplicate class %d", qs.byID[i].ID)
		}
	}
	qs.idx = workload.NewClassIndex(qs.byID)
	// The dispatcher, the velocity windows and the admission-wait
	// instruments index by the row of a patroller-managed query's class.
	for _, id := range pat.Managed() {
		if qs.idx.Row(id) < 0 {
			return nil, fmt.Errorf("core: the patroller intercepts class %d, which is not a scheduled class", id)
		}
	}
	qs.predictors = make([]perfmodel.Predictor, len(qs.byID))
	for i, c := range qs.byID {
		qs.predictors[i] = perfmodel.OLAPVelocity{Floor: perfmodel.DefaultVelocityFloor}
		if c.Kind == workload.OLTP {
			qs.predictors[i] = oltp
		}
	}
	qs.dispCost = make([]float64, len(qs.byID))
	qs.dispCount = make([]int, len(qs.byID))

	qs.sloObserved = make([]int, len(classes))
	qs.sloMet = make([]int, len(classes))
	qs.sloWin = make([]*obs.SLOWindow, len(classes))
	for i := range qs.sloWin {
		qs.sloWin[i] = obs.NewSLOWindow(cfg.SLOWindow)
	}

	qs.limits = qs.initialPlan()
	qs.mon = newMonitor(eng, pat, qs.byID, qs.idx, qs.oltpClass, oltpClients, cfg.SnapshotInterval)
	qs.mon.faults = cfg.MonitorFaults
	return qs, nil
}

// initialPlan splits the system cost limit equally across all classes
// (including the OLTP class's virtual share).
func (qs *QueryScheduler) initialPlan() solver.Plan {
	plan := make(solver.Plan, len(qs.byID))
	share := qs.cfg.SystemCostLimit / float64(len(plan))
	for i := range plan {
		plan[i] = share
	}
	return plan
}

// Start installs the dispatcher as the patroller's policy and begins the
// control loop.
func (qs *QueryScheduler) Start() {
	if qs.running {
		panic("core: scheduler already started")
	}
	qs.running = true
	qs.pat.SetPolicy(qs)
	// A restart after StopWith(StopDrain) must also undo the drain's side
	// effects: SetPolicy above replaces the installed ReleaseAll policy,
	// and the monitor's snapshot ticker — stopped by StopWith — has to be
	// re-armed or the OLTP class would never be measured again.
	qs.mon.start()
	if qs.ticker != nil {
		qs.ticker.Start()
	} else {
		qs.ticker = qs.eng.Clock().StartTicker(qs.cfg.ControlInterval, qs.controlTick)
	}
}

// StopMode selects what happens to still-held queries when the control
// loop shuts down.
type StopMode int

// Stop modes.
const (
	// StopFreeze halts the control loop and leaves held queries held —
	// the historical behaviour, right for end-of-simulation teardown
	// where nothing will run again anyway.
	StopFreeze StopMode = iota
	// StopDrain halts the control loop and installs an unconditional
	// release policy, so every held query (and any still arriving) is
	// admitted instead of stranded. Use when the engine keeps running
	// after the controller goes away.
	StopDrain
)

// Stop halts the control loop, freezing held queries (StopFreeze).
func (qs *QueryScheduler) Stop() { qs.StopWith(StopFreeze) }

// StopWith halts the control loop with the given shutdown mode.
func (qs *QueryScheduler) StopWith(mode StopMode) {
	if !qs.running {
		return
	}
	qs.running = false
	qs.ticker.Stop()
	qs.mon.stop()
	if mode == StopDrain {
		qs.pat.SetPolicy(patroller.ReleaseAll{})
		qs.pat.Poke()
	}
}

// CostLimit returns class id's limit in the current scheduling plan (the
// OLTP class's is virtual); false when id is not a class.
func (qs *QueryScheduler) CostLimit(id engine.ClassID) (float64, bool) {
	if i := qs.idx.Row(id); i >= 0 {
		return qs.limits[i], true
	}
	return 0, false
}

// SetSystemCostLimit re-targets the total budget the per-class solver
// splits. A fleet-level controller calls this each interval to hand
// every backend its share of the global budget; the next control tick
// plans against the new total. Single-backend runs never call it, so
// their byte-identical goldens are untouched. The current plan is left
// as is — the solver rescales at the next tick.
func (qs *QueryScheduler) SetSystemCostLimit(limit float64) {
	if limit <= 0 {
		panic(fmt.Sprintf("core: system cost limit %v must be positive", limit))
	}
	qs.cfg.SystemCostLimit = limit
}

// History returns all control-interval records so far, deep-copied:
// mutating the result never corrupts the scheduler's live state.
func (qs *QueryScheduler) History() []PlanRecord {
	out := make([]PlanRecord, len(qs.history))
	for i, r := range qs.history {
		out[i] = r.Clone()
	}
	return out
}

// Verdict is the part of a control-interval record the fleet planner
// acts on every tick: whether the plan was held, and the plan's
// feasibility verdict with its binding class.
type Verdict struct {
	Held       bool
	Infeasible bool
	Binding    engine.ClassID
}

// LastVerdict returns the most recent control interval's verdict without
// copying its record; false means no tick has run yet.
func (qs *QueryScheduler) LastVerdict() (Verdict, bool) {
	if len(qs.history) == 0 {
		return Verdict{}, false
	}
	rec := &qs.history[len(qs.history)-1]
	return Verdict{Held: rec.Held, Infeasible: rec.Infeasible, Binding: rec.Binding}, true
}

// OnPlan registers a hook called with each control interval's PlanRecord
// as it is appended to the history. Hooks run in registration order; the
// trace layer uses this to emit plan-change events.
func (qs *QueryScheduler) OnPlan(h func(PlanRecord)) {
	if h == nil {
		panic("core: nil plan hook")
	}
	qs.planHooks = append(qs.planHooks, h)
}

// Config returns the scheduler's effective configuration (defaults
// filled in) — what the decision log's meta line records.
func (qs *QueryScheduler) Config() Config { return qs.cfg }

// Detector exposes the workload detector (for diagnostics and reports).
func (qs *QueryScheduler) Detector() *detect.Detector { return qs.detector }

// SelectReleases implements patroller.Policy — the Dispatcher. Per class,
// queries are released in arrival order while the class's executing cost
// plus the candidate's cost stays within the class cost limit.
//
//qlint:hotpath
func (qs *QueryScheduler) SelectReleases(v *patroller.View) []engine.QueryID {
	cost, count := qs.dispCost, qs.dispCount
	for i := range cost {
		cost[i] = 0
		count[i] = 0
	}
	// New rejects a patroller that intercepts a class outside the
	// roster, so every held or executing query here has a row.
	for _, qi := range v.Active {
		s := qs.idx.Row(qi.Class)
		cost[s] += qi.Cost
		count[s]++
	}
	out := qs.releaseOut[:0]
	for _, qi := range v.Held {
		s := qs.idx.Row(qi.Class)
		limit := qs.limits[s]
		fits := cost[s]+qi.Cost <= limit+1e-9
		starving := qs.cfg.StarvationGuard && count[s] == 0 && qi.Cost > limit
		if !fits && !starving {
			qs.instr.noteHold(s)
			continue // head-of-line blocks only its own class
		}
		cost[s] += qi.Cost
		count[s]++
		qs.instr.noteRelease(s)
		out = append(out, qi.ID)
	}
	qs.releaseOut = out[:0]
	return out
}

// controlTick is one Scheduling Planner cycle: harvest measurements, feed
// the performance models, consult the Performance Solver, and hand the new
// plan to the dispatcher. The plan rows, the solver problem and the plan
// all share byID's order.
func (qs *QueryScheduler) controlTick() {
	meas := qs.mon.harvest()
	rows := make([]ClassPlan, len(qs.byID))
	for i, c := range qs.byID {
		rows[i].ID = c.ID
	}

	// Graceful degradation: a fault-dropped harvest (or an interval whose
	// entire OLTP view was lost) carries zeros, not measurements. Feeding
	// them forward would collapse the velocity anchors and poison the
	// OLTP regression, so — when enabled — hold the previous plan and
	// skip the model updates, up to maxHeldTicks consecutive intervals.
	if (meas.Dropped || meas.OLTPDropout) && qs.cfg.HoldPlanOnDropout && qs.heldTicks < maxHeldTicks {
		qs.heldTicks++
		for i := range rows {
			rows[i].Limit = qs.limits[i]
		}
		rec := PlanRecord{
			Time:        meas.Time,
			Measurement: meas,
			OLTPSlope:   qs.oltpLinear.Slope(),
			Classes:     rows,
			Held:        true,
		}
		qs.history = append(qs.history, rec)
		qs.instr.noteTick(rec, nil)
		qs.instr.notePlanHeld()
		for _, h := range qs.planHooks {
			h(rec.Clone())
		}
		qs.pat.Poke()
		return
	}
	qs.heldTicks = 0
	qs.sloObserve(meas, rows)

	// Workload detection: characterize each class's interval and, when
	// feed-forward is enabled, compute demand forecasts for the coming
	// interval. Classes are observed in the caller's order, the order
	// the detector's shift log records.
	for _, c := range qs.classes {
		m, _ := meas.Class(c.ID)
		rows[qs.idx.Row(c.ID)].Workload = qs.detector.Observe(detect.Observation{
			Time:       meas.Time,
			Class:      c.ID,
			Arrivals:   m.Arrivals,
			MeanCost:   m.ArrivalMeanCost,
			Interval:   qs.cfg.ControlInterval,
			Population: float64(m.Population),
		})
	}

	problem := solver.Problem{
		Classes: make([]solver.ClassSpec, len(qs.byID)),
		Total:   qs.cfg.SystemCostLimit,
		Step:    qs.cfg.PlanStep,
	}
	for i, c := range qs.byID {
		row := &rows[i]
		cPrev := qs.limits[i]
		m, _ := meas.Class(c.ID)
		p := qs.predictors[i]
		spec := solver.ClassSpec{ID: c.ID}
		var anchor float64
		idle := false
		switch c.Kind {
		case workload.OLAP:
			p.Observe(perfmodel.Sample{Limit: cPrev, Value: m.Velocity, Population: float64(m.Population)})
			anchor, idle = m.Velocity, m.Idle
			if anchor <= 0 && !idle {
				// A busy class measured at zero velocity (every in-flight
				// query still blocked, or a zeroed dropout measurement)
				// would predict 0 at every candidate limit — the solver
				// could never justify giving it capacity again. Anchor at
				// the model floor so recovery stays reachable.
				anchor = perfmodel.DefaultVelocityFloor
			}
			if qs.cfg.FeedForward && !idle {
				anchor = qs.feedForwardAnchor(c.ID, anchor, row.Workload)
			}
			spec.Utility = utility.NewVelocity(c.Goal.Target, c.Importance)
			spec.Min = qs.cfg.MinOLAPLimit
		case workload.OLTP:
			anchor = meas.OLTPRespTime
			p.Observe(perfmodel.Sample{Limit: cPrev, Value: anchor, Population: float64(m.Population)})
			spec.Utility = utility.NewResponseTime(c.Goal.Target, c.Importance)
		}
		model := p.Name()
		if idle {
			model = ProvenanceIdle
		}
		row.Provenance = Provenance{Model: model, Anchor: anchor, AnchorLimit: cPrev}
		spec.Predict = func(limit float64) float64 {
			if idle {
				// No workload to delay: ideal at any limit.
				return 1
			}
			return p.Predict(anchor, cPrev, limit)
		}
		problem.Classes[i] = spec
	}

	var plan solver.Plan
	var search solver.Search
	if in, ok := qs.cfg.Solver.(solver.Introspector); ok {
		plan, search = in.SolveIntrospect(problem, qs.limits)
	} else {
		plan = qs.cfg.Solver.Solve(problem, qs.limits)
	}
	if len(plan) != len(problem.Classes) {
		panic(fmt.Sprintf("core: solver returned %d limits for %d classes", len(plan), len(problem.Classes)))
	}
	var prev []ClassPlan
	if n := len(qs.history); n > 0 && !qs.history[n-1].Held {
		prev = qs.history[n-1].Classes
	}
	qs.limits = plan
	rec := PlanRecord{
		Time:        meas.Time,
		Measurement: meas,
		Utility:     solver.Utility(problem, plan),
		OLTPSlope:   qs.oltpLinear.Slope(),
		Classes:     rows,
		Search:      search,
	}
	qs.judgePlan(problem, plan, &rec)
	qs.history = append(qs.history, rec)
	qs.instr.noteTick(rec, prev)
	for _, h := range qs.planHooks {
		h(rec.Clone())
	}
	qs.pat.Poke() // apply the new limits right away
}

// judgePlan writes plan into rec's rows — each class's limit and the
// forecast there — and judges it against the class goals: the ceiling
// at each class's corner allocation (all budget above the other classes'
// minimums), whether the forecast and the ceiling meet the goal, the
// normalized miss, and the record's verdict. It runs whatever the solver
// is, so the verdict the fleet planner acts on never depends on the
// solver's introspection.
func (qs *QueryScheduler) judgePlan(p solver.Problem, plan solver.Plan, rec *PlanRecord) {
	minSum := 0.0
	for _, c := range p.Classes {
		minSum += c.Min
	}
	bind := -1
	for i, c := range p.Classes {
		row := &rec.Classes[i]
		goal := qs.byID[i].Goal
		row.Limit = plan[i]
		row.Predicted = c.Predict(plan[i])
		row.Ceiling = c.Predict(p.Total - (minSum - c.Min))
		row.GoalMet = goal.Met(row.Predicted)
		row.Reachable = goal.Met(row.Ceiling)
		if row.GoalMet {
			continue
		}
		// A miss lies on the goal's wrong side, so this is (target −
		// predicted) for a velocity goal and (predicted − target) for a
		// response-time goal.
		row.Shortfall = math.Abs(row.Predicted-goal.Target) / goal.Target
		if bind < 0 || bindsHarder(*row, rec.Classes[bind]) {
			bind = i
		}
	}
	if bind >= 0 {
		rec.Infeasible = true
		rec.Binding = rec.Classes[bind].ID
	}
}

// bindsHarder ranks two goal-missing rows for the Binding slot.
func bindsHarder(a, b ClassPlan) bool {
	if a.Reachable != b.Reachable {
		return !a.Reachable // unreachable goals bind hardest
	}
	return a.Shortfall > b.Shortfall // ties keep the lower ID (row order)
}

// feedForwardAnchor discounts a class's measured velocity by the
// forecast demand growth: with a class cost limit fixed, velocity is
// inversely proportional to offered demand (more clients waiting behind
// the same admission budget), so an intensity forecast of +20% anchors
// the model at vMeas/1.2 before the solver runs.
func (qs *QueryScheduler) feedForwardAnchor(class engine.ClassID, vMeas float64,
	char detect.Characterization) float64 {

	fc := qs.detector.Forecast(class, qs.cfg.ControlInterval)
	if fc.Confidence <= 0 || char.DemandRate <= 0 || fc.DemandRate <= 0 {
		return vMeas
	}
	ratio := fc.DemandRate / char.DemandRate
	// Blend by confidence and keep the correction bounded.
	ratio = 1 + fc.Confidence*(ratio-1)
	if ratio < 0.5 {
		ratio = 0.5
	}
	if ratio > 2 {
		ratio = 2
	}
	return vMeas / ratio
}
