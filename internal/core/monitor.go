package core

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/workload"
)

// monitor is the Query Scheduler's Monitor component. It measures, per
// control interval:
//
//   - each managed (OLAP) class's query velocity, from the patroller rows
//     of queries that completed during the interval, falling back to
//     in-flight progress estimates when nothing completed (big queries can
//     outlive an interval); and
//   - the OLTP class's average response time, by sampling the engine's
//     snapshot monitor every SnapshotInterval seconds across the active
//     OLTP clients and averaging the samples — exactly the workaround the
//     paper describes for observing a class that is not intercepted.
type monitor struct {
	eng   *engine.Engine
	pat   *patroller.Patroller
	clock *simclock.Clock

	oltpClass   *workload.Class
	oltpClients func() []engine.ClientID

	oltpResp stats.Summary
	lastOLTP float64 // sticky last measured OLTP mean RT
	ticker   *simclock.Ticker

	// faults, when non-nil, can drop snapshot polls and whole harvests.
	faults MonitorFaultInjector
	// snapPolls/snapDropped count this interval's snapshot polls and how
	// many of them the fault injector swallowed.
	snapPolls   int
	snapDropped int

	// Per-class interval state lives in slices indexed by the
	// scheduler's rows (idx): the submit/done hooks run once per query,
	// so a map lookup there is the dominant monitor cost at scale.
	idx         workload.ClassIndex
	managed     []bool // OLAP rows; the velocity windows of the others stay unused
	velWindow   []stats.Summary
	arrivals    []int
	arrivalCost []stats.Summary
	inflight    []int
	// inflightN and inflightEst are harvest's per-row scratch: in-flight
	// managed queries and their progress-based velocity estimate, for
	// classes with no completions this interval.
	inflightN   []int
	inflightEst []stats.Summary
}

// newMonitor builds the monitor over the scheduler's rows: byID is the
// roster sorted by ID and idx its class index.
func newMonitor(eng *engine.Engine, pat *patroller.Patroller, byID []*workload.Class, idx workload.ClassIndex,
	oltp *workload.Class, oltpClients func() []engine.ClientID, snapshotInterval float64) *monitor {

	n := idx.Len()
	m := &monitor{
		eng:         eng,
		pat:         pat,
		clock:       eng.Clock(),
		oltpClass:   oltp,
		oltpClients: oltpClients,
		idx:         idx,
		managed:     make([]bool, n),
		velWindow:   make([]stats.Summary, n),
		arrivals:    make([]int, n),
		arrivalCost: make([]stats.Summary, n),
		inflight:    make([]int, n),
		inflightN:   make([]int, n),
		inflightEst: make([]stats.Summary, n),
	}
	for s, c := range byID {
		m.managed[s] = c.Kind == workload.OLAP
	}
	// Arrivals are observed at the engine (not the patroller) so the
	// unintercepted OLTP class is characterized too.
	eng.OnSubmit(func(q *engine.Query) {
		// A retry is the same logical query re-entering the system, not a
		// new arrival; counting it would inflate the detector's demand
		// estimate. In-flight balance still holds because the engine
		// reports done/failed only for terminal outcomes.
		s := m.idx.Row(q.Class)
		if q.Attempt > 0 || s < 0 {
			return
		}
		m.arrivals[s]++
		m.inflight[s]++
		m.arrivalCost[s].Add(q.Cost)
	})
	eng.OnDone(func(q *engine.Query) {
		if s := m.idx.Row(q.Class); s >= 0 {
			m.inflight[s]--
		}
	})
	if oltp != nil {
		m.lastOLTP = oltp.Goal.Target // optimistic prior until measured
		m.ticker = m.clock.StartTicker(snapshotInterval, m.sampleSnapshot)
	}
	pat.OnManagedDone(m.onManagedDone)
	return m
}

// onManagedDone folds a completed managed query's velocity into its
// class's interval window. The scheduler admits only a patroller whose
// managed classes are its OLAP classes, so the query's class has a row.
//
//qlint:hotpath
func (m *monitor) onManagedDone(qi *patroller.QueryInfo) {
	w := &m.velWindow[m.idx.Row(qi.Class)]
	resp := qi.DoneTime - qi.SubmitTime
	if resp <= 0 {
		w.Add(1)
		return
	}
	w.Add((qi.DoneTime - qi.ReleaseTime) / resp)
}

// sampleSnapshot polls the snapshot monitor: one response-time sample per
// active OLTP client that has finished at least one statement. A fault
// dropout loses the whole poll (all clients, this tick).
func (m *monitor) sampleSnapshot() {
	m.snapPolls++
	if m.faults != nil && m.faults.DropSnapshot(m.clock.Now()) {
		m.snapDropped++
		return
	}
	for _, id := range m.oltpClients() {
		if s, ok := m.eng.LastFinished(id); ok {
			m.oltpResp.Add(s.RespTime)
		}
	}
}

// Measurement is what the monitor hands the planner each control interval.
type Measurement struct {
	Time simclock.Time
	// Classes holds one row per tracked class (managed OLAP classes and
	// the OLTP class), sorted by class ID. Nil when Dropped.
	Classes []ClassMeasurement
	// OLTPRespTime is the OLTP class's mean response time over the
	// interval's snapshot samples (sticky from the previous interval if
	// no sample arrived).
	OLTPRespTime float64
	// OLTPSamples counts snapshot samples behind OLTPRespTime.
	OLTPSamples int
	// Dropped marks a harvest the fault injector swallowed whole: every
	// value above is zeroed and the interval's raw data is lost.
	Dropped bool
	// OLTPDropout marks an interval in which every snapshot poll was
	// fault-dropped, so OLTPRespTime is only the sticky previous value.
	OLTPDropout bool
}

// ClassMeasurement is one tracked class's row of a Measurement.
type ClassMeasurement struct {
	ID engine.ClassID
	// Velocity is a managed class's measured mean velocity.
	Velocity float64
	// VelocitySamples counts the completions behind Velocity (0 means
	// the value is an in-flight estimate or idle default).
	VelocitySamples int
	// Arrivals counts the interval's submissions — input to workload
	// detection.
	Arrivals int
	// ArrivalMeanCost is the mean timeron cost of the interval's
	// arrivals (0 when none arrived).
	ArrivalMeanCost float64
	// Population is the number of in-system (queued or executing)
	// queries at harvest time — with zero-think-time clients, exactly
	// the active client count. The detector's change signal.
	Population int
	// Managed marks a managed (OLAP) class. Velocity, VelocitySamples
	// and Idle are measured for managed classes only and stay zero on
	// the OLTP row.
	Managed bool
	// Idle marks a managed class that had neither completions nor
	// in-flight queries during the interval: no workload to speed up, so
	// any cost limit yields ideal velocity.
	Idle bool
}

// Class returns class id's row; false when the measurement has none (a
// dropped harvest, or a class the monitor does not track).
func (m Measurement) Class(id engine.ClassID) (ClassMeasurement, bool) {
	for _, c := range m.Classes {
		if c.ID == id {
			return c, true
		}
	}
	return ClassMeasurement{}, false
}

// Observed returns the value the harvest measured for class id of the
// given kind (velocity for OLAP, mean response time for OLTP) and whether
// it counts as an observation. A dropped harvest, an idle OLAP class, and
// an OLTP interval with no samples or with every poll dropped do not.
func (m Measurement) Observed(id engine.ClassID, kind workload.Kind) (float64, bool) {
	if kind == workload.OLTP {
		return m.OLTPRespTime, !m.Dropped && m.OLTPSamples > 0 && !m.OLTPDropout
	}
	c, _ := m.Class(id)
	return c.Velocity, !m.Dropped && !c.Idle
}

// Clone returns a deep copy: the caller may hold or mutate it without
// aliasing the monitor's (or the plan history's) rows.
func (m Measurement) Clone() Measurement {
	m.Classes = slices.Clone(m.Classes)
	return m
}

// harvest closes the current interval: it computes the measurement and
// resets the windows. A fault-dropped harvest loses the interval's data
// entirely: the windows still reset (the raw samples are gone) and the
// planner receives a zeroed measurement flagged Dropped.
func (m *monitor) harvest() Measurement {
	now := m.clock.Now()
	if m.faults != nil && m.faults.DropHarvest(now) {
		m.resetWindows()
		return Measurement{Time: now, Dropped: true}
	}
	meas := Measurement{Time: now}
	// Fold in-flight managed queries of classes without completions into
	// per-class progress estimates. A still-blocked query has velocity 0
	// so far; an executing one has exec/(wait+exec) so far. A query a
	// fleet failover evacuated off this backend still counts, at velocity
	// 0, for the rest of the run (TestEvacuatedQueriesCountInLaterHarvests).
	for _, qi := range m.pat.Unfinished() {
		s := m.idx.Row(qi.Class)
		if m.velWindow[s].Count() > 0 {
			continue
		}
		m.inflightN[s]++
		total := now - qi.SubmitTime
		if total <= 0 {
			continue
		}
		exec := 0.0
		if qi.State == patroller.Running {
			exec = now - qi.ReleaseTime
		}
		m.inflightEst[s].Add(exec / total)
	}
	meas.Classes = make([]ClassMeasurement, m.idx.Len())
	for s, id := range m.idx.IDs() {
		row := &meas.Classes[s]
		row.ID = id
		if m.managed[s] {
			row.Managed = true
			w, est := &m.velWindow[s], &m.inflightEst[s]
			switch {
			case w.Count() > 0:
				row.Velocity = w.Mean()
				row.VelocitySamples = w.Count()
			case m.inflightN[s] > 0:
				// No completions: estimate velocity from in-flight progress.
				row.Velocity = 1
				if est.Count() > 0 {
					row.Velocity = est.Mean()
				}
			default:
				// Idle class: nothing to speed up; report the ideal and
				// flag it so the planner knows the limit is irrelevant.
				row.Velocity = 1
				row.Idle = true
			}
			w.Reset()
			est.Reset()
			m.inflightN[s] = 0
		}
		row.Arrivals = m.arrivals[s]
		row.Population = m.inflight[s]
		if cs := &m.arrivalCost[s]; cs.Count() > 0 {
			row.ArrivalMeanCost = cs.Mean()
			cs.Reset()
		}
		m.arrivals[s] = 0
	}
	if m.oltpClass != nil {
		if m.oltpResp.Count() > 0 {
			m.lastOLTP = m.oltpResp.Mean()
			meas.OLTPSamples = m.oltpResp.Count()
		}
		meas.OLTPRespTime = m.lastOLTP
		meas.OLTPDropout = m.snapPolls > 0 && m.snapDropped == m.snapPolls
		m.oltpResp.Reset()
	}
	m.snapPolls, m.snapDropped = 0, 0
	return meas
}

// resetWindows discards the interval's accumulated samples — used when a
// fault drops the whole harvest.
func (m *monitor) resetWindows() {
	for s := range m.velWindow {
		m.velWindow[s].Reset()
		m.arrivals[s] = 0
		m.arrivalCost[s].Reset()
	}
	m.oltpResp.Reset()
	m.snapPolls, m.snapDropped = 0, 0
}

// stop halts the snapshot ticker.
func (m *monitor) stop() {
	if m.ticker != nil {
		m.ticker.Stop()
	}
}

// start re-arms the snapshot ticker after a stop (scheduler restart); a
// no-op on first start, when the constructor's ticker is still active.
func (m *monitor) start() {
	if m.ticker != nil {
		m.ticker.Start()
	}
}
