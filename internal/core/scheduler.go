package core

import (
	"fmt"
	"sort"

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

// Classifier assigns an intercepted query to a service class based on its
// recorded information. The default keeps the class the submitting
// connection was tagged with — the common production setup where service
// classes map to applications or user groups.
type Classifier interface {
	Classify(qi *patroller.QueryInfo) engine.ClassID
}

// TagClassifier classifies by the query's submitted class tag.
type TagClassifier struct{}

// Classify implements Classifier.
func (TagClassifier) Classify(qi *patroller.QueryInfo) engine.ClassID { return qi.Class }

// PlanRecord is one control interval's outcome: the measurements the
// planner saw and the scheduling plan it chose. The sequence of records
// regenerates the paper's Figure 7.
type PlanRecord struct {
	Time        simclock.Time
	Measurement Measurement
	Limits      solver.Plan
	Utility     float64
	OLTPSlope   float64
	// Workload holds the detector's characterization per class at
	// planning time.
	Workload map[engine.ClassID]detect.Characterization
	// Predicted is the performance each class's model forecast for the
	// coming interval at the chosen limits (velocity for OLAP classes,
	// mean response time for the OLTP class). Comparing it against the
	// next record's Measurement yields the model's prediction error.
	Predicted map[engine.ClassID]float64
	// Held marks a degraded tick: the harvest (or the entire OLTP view)
	// was fault-dropped and the planner kept the previous plan instead of
	// feeding zeros to the models. Workload and Predicted are nil.
	Held bool
	// Search summarizes the Performance Solver's run for this tick —
	// candidates considered, improving moves, runner-up utility, and the
	// goal-feasibility analysis (infeasible plan, binding class).
	// Zero-valued on held ticks and under non-introspecting solvers.
	Search solver.Search
	// Provenance records, per class, which performance model produced
	// the prediction and the anchor it extrapolated from. Nil on held
	// ticks.
	Provenance map[engine.ClassID]Provenance
	// Attainment and BurnRate carry the scheduler's SLO accounting after
	// this tick's measurement folded in: the cumulative goal-attainment
	// ratio and the error-budget burn rate over the sliding window, per
	// class. Nil on held ticks (the degraded measurement is not folded).
	Attainment map[engine.ClassID]float64
	BurnRate   map[engine.ClassID]float64
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

// Clone returns a deep copy of the record; callers may hold or mutate it
// without aliasing the scheduler's live maps.
func (r PlanRecord) Clone() PlanRecord {
	r.Measurement = r.Measurement.Clone()
	r.Limits = r.Limits.Clone()
	r.Workload = cloneMap(r.Workload)
	r.Predicted = cloneMap(r.Predicted)
	r.Search = r.Search.Clone()
	r.Provenance = cloneMap(r.Provenance)
	r.Attainment = cloneMap(r.Attainment)
	r.BurnRate = cloneMap(r.BurnRate)
	return r
}

// QueryScheduler wires Monitor, Classifier, Dispatcher, Scheduling
// Planner, and Performance Solver around a Query Patroller, adapting a
// mixed workload to its SLOs.
type QueryScheduler struct {
	cfg        Config
	eng        *engine.Engine
	pat        *patroller.Patroller
	classifier Classifier

	classes     []*workload.Class
	olapClasses []*workload.Class
	oltpClass   *workload.Class

	mon       *monitor
	oltpModel *perfmodel.OLTPResponse
	oltpTput  *perfmodel.OLTPThroughput
	velModel  perfmodel.OLAPVelocity
	detector  *detect.Detector

	limits    solver.Plan
	ticker    *simclock.Ticker
	history   []PlanRecord
	planHooks []func(PlanRecord)

	// SLO accounting, fed one observation per measured (non-held,
	// non-dropped) control tick and surfaced through PlanRecord and the
	// qs_slo_* metrics. All three maps are fully populated at
	// construction; only their values mutate.
	sloObserved map[engine.ClassID]int
	sloMet      map[engine.ClassID]int
	sloWin      map[engine.ClassID]*obs.SLOWindow
	instr       *schedObs
	running     bool
	heldTicks   int // consecutive degraded ticks holding the plan

	// Dispatch scratch: per-class executing cost/count indexed by
	// (class - dispBase), reset and refilled on every SelectReleases call
	// so the per-poke hot path allocates nothing. Classes outside the span
	// are never in qs.limits, so they skip accounting entirely (they are
	// released unconditionally).
	dispBase   engine.ClassID
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
		cfg:        cfg,
		eng:        eng,
		pat:        pat,
		classifier: TagClassifier{},
		classes:    classes,
		oltpModel:  perfmodel.NewOLTPResponse(cfg.OLTP),
		oltpTput:   perfmodel.NewOLTPThroughput(perfmodel.DefaultThroughputConfig()),
		velModel:   perfmodel.OLAPVelocity{Floor: perfmodel.DefaultVelocityFloor},
		detector:   detect.New(cfg.Detection),
	}
	for _, c := range classes {
		switch c.Kind {
		case workload.OLAP:
			if !pat.Manages(c.ID) {
				return nil, fmt.Errorf("core: OLAP class %d is not managed by the patroller", c.ID)
			}
			qs.olapClasses = append(qs.olapClasses, c)
		case workload.OLTP:
			if qs.oltpClass != nil {
				return nil, fmt.Errorf("core: more than one OLTP class")
			}
			if pat.Manages(c.ID) {
				return nil, fmt.Errorf("core: OLTP class %d must not be intercepted (overhead)", c.ID)
			}
			qs.oltpClass = c
		}
	}
	if qs.oltpClass != nil && oltpClients == nil {
		return nil, fmt.Errorf("core: OLTP class present but no client source for snapshots")
	}
	sort.Slice(qs.olapClasses, func(i, j int) bool { return qs.olapClasses[i].ID < qs.olapClasses[j].ID })

	lo, hi := classes[0].ID, classes[0].ID
	for _, c := range classes {
		if c.ID < lo {
			lo = c.ID
		}
		if c.ID > hi {
			hi = c.ID
		}
	}
	qs.dispBase = lo
	qs.dispCost = make([]float64, int(hi-lo)+1)
	qs.dispCount = make([]int, int(hi-lo)+1)

	qs.sloObserved = make(map[engine.ClassID]int, len(classes))
	qs.sloMet = make(map[engine.ClassID]int, len(classes))
	qs.sloWin = make(map[engine.ClassID]*obs.SLOWindow, len(classes))
	for _, c := range classes {
		qs.sloObserved[c.ID] = 0
		qs.sloMet[c.ID] = 0
		qs.sloWin[c.ID] = obs.NewSLOWindow(cfg.SLOWindow)
	}

	qs.limits = qs.initialPlan()
	qs.mon = newMonitor(eng, pat, qs.olapClasses, qs.oltpClass, oltpClients, cfg.SnapshotInterval)
	qs.mon.faults = cfg.MonitorFaults
	return qs, nil
}

// SetClassifier replaces the default classifier.
func (qs *QueryScheduler) SetClassifier(c Classifier) {
	if c == nil {
		panic("core: nil classifier")
	}
	qs.classifier = c
}

// initialPlan splits the system cost limit equally across all classes
// (including the OLTP class's virtual share).
func (qs *QueryScheduler) initialPlan() solver.Plan {
	plan := make(solver.Plan)
	n := len(qs.olapClasses)
	if qs.oltpClass != nil {
		n++
	}
	share := qs.cfg.SystemCostLimit / float64(n)
	for _, c := range qs.olapClasses {
		plan[c.ID] = share
	}
	if qs.oltpClass != nil {
		plan[qs.oltpClass.ID] = share
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

// CostLimits returns the current scheduling plan (class cost limits,
// including the OLTP class's virtual limit). The returned plan is a copy.
func (qs *QueryScheduler) CostLimits() solver.Plan { return qs.limits.Clone() }

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
// acts on every tick: whether the plan was held, and the solver's
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
	return Verdict{Held: rec.Held, Infeasible: rec.Search.Infeasible, Binding: rec.Search.Binding}, true
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

// OLTPModel exposes the fitted response-time model (for diagnostics).
func (qs *QueryScheduler) OLTPModel() *perfmodel.OLTPResponse { return qs.oltpModel }

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
	for _, qi := range v.Active {
		if s := int(qi.Class - qs.dispBase); s >= 0 && s < len(cost) {
			cost[s] += qi.Cost
			count[s]++
		}
	}
	out := qs.releaseOut[:0]
	for _, qi := range v.Held {
		class := qs.classifier.Classify(qi)
		limit, ok := qs.limits[class]
		if !ok {
			// Unknown class: release immediately rather than strand it.
			qs.instr.noteRelease(class)
			out = append(out, qi.ID)
			continue
		}
		// Classes with a limit are always inside the dispatch span.
		s := int(class - qs.dispBase)
		fits := cost[s]+qi.Cost <= limit+1e-9
		starving := qs.cfg.StarvationGuard && count[s] == 0 && qi.Cost > limit
		if !fits && !starving {
			qs.instr.noteHold(class)
			continue // head-of-line blocks only its own class
		}
		cost[s] += qi.Cost
		count[s]++
		qs.instr.noteRelease(class)
		out = append(out, qi.ID)
	}
	qs.releaseOut = out[:0]
	return out
}

// controlTick is one Scheduling Planner cycle: harvest measurements, feed
// the performance models, consult the Performance Solver, and hand the new
// plan to the dispatcher.
func (qs *QueryScheduler) controlTick() {
	meas := qs.mon.harvest()

	// Graceful degradation: a fault-dropped harvest (or an interval whose
	// entire OLTP view was lost) carries zeros, not measurements. Feeding
	// them forward would collapse the velocity anchors and poison the
	// OLTP regression, so — when enabled — hold the previous plan and
	// skip the model updates, up to MaxHeldTicks consecutive intervals.
	deg := qs.cfg.Degradation
	if (meas.Dropped || meas.OLTPDropout) && deg.HoldPlanOnDropout &&
		(deg.MaxHeldTicks <= 0 || qs.heldTicks < deg.MaxHeldTicks) {
		qs.heldTicks++
		rec := PlanRecord{
			Time:        meas.Time,
			Measurement: meas,
			Limits:      qs.limits.Clone(),
			OLTPSlope:   qs.oltpModel.Slope(),
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
	attainment, burnRate := qs.sloObserve(meas)

	// Workload detection: characterize each class's interval and, when
	// feed-forward is enabled, compute demand forecasts for the coming
	// interval.
	chars := make(map[engine.ClassID]detect.Characterization, len(qs.classes))
	for _, c := range qs.classes {
		chars[c.ID] = qs.detector.Observe(detect.Observation{
			Time:       meas.Time,
			Class:      c.ID,
			Arrivals:   meas.Arrivals[c.ID],
			MeanCost:   meas.ArrivalMeanCost[c.ID],
			Interval:   qs.cfg.ControlInterval,
			Population: float64(meas.Population[c.ID]),
		})
	}

	if qs.oltpClass != nil {
		qs.oltpModel.Observe(qs.limits[qs.oltpClass.ID], meas.OLTPRespTime)
		qs.oltpTput.ObserveLoad(qs.limits[qs.oltpClass.ID], meas.OLTPRespTime,
			float64(meas.Population[qs.oltpClass.ID]))
	}

	problem := solver.Problem{
		Total: qs.cfg.SystemCostLimit,
		Step:  qs.cfg.PlanStep,
	}
	provenance := make(map[engine.ClassID]Provenance, len(qs.classes))
	for _, c := range qs.olapClasses {
		c := c
		vPrev := meas.Velocity[c.ID]
		cPrev := qs.limits[c.ID]
		idle := meas.Idle[c.ID]
		if vPrev <= 0 && !idle {
			// A busy class measured at zero velocity (every in-flight
			// query still blocked, or a zeroed dropout measurement) would
			// predict 0 at every candidate limit — the solver could never
			// justify giving it capacity again. Anchor at the model floor
			// so recovery stays reachable.
			vPrev = qs.velModel.Floor
		}
		if qs.cfg.FeedForward && !idle {
			vPrev = qs.feedForwardAnchor(c.ID, vPrev, chars[c.ID])
		}
		model := qs.velModel.Name()
		if idle {
			model = ProvenanceIdle
		}
		provenance[c.ID] = Provenance{Model: model, Anchor: vPrev, AnchorLimit: cPrev}
		problem.Classes = append(problem.Classes, solver.ClassSpec{
			ID:      c.ID,
			Utility: utility.NewVelocity(c.Goal.Target, c.Importance),
			Min:     qs.cfg.MinOLAPLimit,
			Predict: func(limit float64) float64 {
				if idle {
					// No workload to delay: ideal at any limit.
					return 1
				}
				return qs.velModel.Predict(vPrev, cPrev, limit)
			},
			GoalDir:    solver.GoalAtLeast,
			GoalTarget: c.Goal.Target,
		})
	}
	if qs.oltpClass != nil {
		c := qs.oltpClass
		tPrev := meas.OLTPRespTime
		cPrev := qs.limits[c.ID]
		useTput := qs.cfg.OLTPModel == ThroughputOLTPModel && qs.oltpTput.Usable()
		model := qs.oltpModel.Name()
		if useTput {
			model = qs.oltpTput.Name()
		}
		provenance[c.ID] = Provenance{Model: model, Anchor: tPrev, AnchorLimit: cPrev}
		problem.Classes = append(problem.Classes, solver.ClassSpec{
			ID:      c.ID,
			Utility: utility.NewResponseTime(c.Goal.Target, c.Importance),
			Min:     qs.cfg.MinOLTPLimit,
			Predict: func(limit float64) float64 {
				if useTput {
					return qs.oltpTput.Predict(tPrev, cPrev, limit)
				}
				return qs.oltpModel.Predict(tPrev, cPrev, limit)
			},
			GoalDir:    solver.GoalAtMost,
			GoalTarget: c.Goal.Target,
		})
	}

	var plan solver.Plan
	var search solver.Search
	if in, ok := qs.cfg.Solver.(solver.Introspector); ok {
		plan, search = in.SolveIntrospect(problem, qs.limits)
	} else {
		plan = qs.cfg.Solver.Solve(problem, qs.limits)
	}
	predicted := make(map[engine.ClassID]float64, len(problem.Classes))
	for _, spec := range problem.Classes {
		predicted[spec.ID] = spec.Predict(plan[spec.ID])
	}
	var prevPredicted map[engine.ClassID]float64
	if n := len(qs.history); n > 0 {
		prevPredicted = qs.history[n-1].Predicted
	}
	qs.limits = plan
	rec := PlanRecord{
		Time:        meas.Time,
		Measurement: meas,
		Limits:      plan.Clone(),
		Utility:     solver.Utility(problem, plan),
		OLTPSlope:   qs.oltpModel.Slope(),
		Workload:    chars,
		Predicted:   predicted,
		Search:      search,
		Provenance:  provenance,
		Attainment:  attainment,
		BurnRate:    burnRate,
	}
	qs.history = append(qs.history, rec)
	qs.instr.noteTick(rec, prevPredicted)
	for _, h := range qs.planHooks {
		h(rec.Clone())
	}
	qs.pat.Poke() // apply the new limits right away
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
