package core

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/workload"
)

// monitor is the Query Scheduler's Monitor component. It measures, per
// control interval:
//
//   - each managed (OLAP) class's query velocity, from control-table rows
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

	olapClasses []*workload.Class
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

	// Per-class interval state lives in dense slices indexed by
	// (class - base): the submit/done hooks run once per query, so a map
	// lookup there is the dominant monitor cost at scale. trackedIDs keeps
	// the tracked classes in ascending id order for harvest iteration.
	base        engine.ClassID
	trackedIDs  []engine.ClassID
	velWindow   []stats.Summary // olap classes only; untracked slots stay unused
	hasVel      []bool
	arrivals    []int
	arrivalCost []stats.Summary
	inflight    []int
	tracked     []bool
}

func newMonitor(eng *engine.Engine, pat *patroller.Patroller, olap []*workload.Class,
	oltp *workload.Class, oltpClients func() []engine.ClientID, snapshotInterval float64) *monitor {

	m := &monitor{
		eng:         eng,
		pat:         pat,
		clock:       eng.Clock(),
		olapClasses: olap,
		oltpClass:   oltp,
		oltpClients: oltpClients,
	}
	lo, hi := engine.ClassID(0), engine.ClassID(0)
	first := true
	span := func(id engine.ClassID) {
		if first {
			lo, hi, first = id, id, false
			return
		}
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	for _, c := range olap {
		span(c.ID)
	}
	if oltp != nil {
		span(oltp.ID)
	}
	n := 0
	if !first {
		n = int(hi-lo) + 1
	}
	m.base = lo
	m.velWindow = make([]stats.Summary, n)
	m.hasVel = make([]bool, n)
	m.arrivals = make([]int, n)
	m.arrivalCost = make([]stats.Summary, n)
	m.inflight = make([]int, n)
	m.tracked = make([]bool, n)
	for _, c := range olap {
		m.hasVel[c.ID-lo] = true
		m.trackClass(c.ID)
	}
	if oltp != nil {
		m.trackClass(oltp.ID)
	}
	sort.Slice(m.trackedIDs, func(i, j int) bool { return m.trackedIDs[i] < m.trackedIDs[j] })
	// Arrivals are observed at the engine (not the patroller) so the
	// unintercepted OLTP class is characterized too.
	eng.OnSubmit(func(q *engine.Query) {
		// A retry is the same logical query re-entering the system, not a
		// new arrival; counting it would inflate the detector's demand
		// estimate. In-flight balance still holds because the engine
		// reports done/failed only for terminal outcomes.
		s := int(q.Class - m.base)
		if q.Attempt > 0 || s < 0 || s >= len(m.tracked) || !m.tracked[s] {
			return
		}
		m.arrivals[s]++
		m.inflight[s]++
		m.arrivalCost[s].Add(q.Cost)
	})
	eng.OnDone(func(q *engine.Query) {
		if s := int(q.Class - m.base); s >= 0 && s < len(m.tracked) && m.tracked[s] {
			m.inflight[s]--
		}
	})
	if oltp != nil {
		m.lastOLTP = oltp.Goal.Target // optimistic prior until measured
		m.ticker = m.clock.StartTicker(snapshotInterval, m.sampleSnapshot)
	}
	prev := pat.OnManagedDone
	pat.OnManagedDone = func(qi *patroller.QueryInfo) {
		if prev != nil {
			prev(qi)
		}
		m.onManagedDone(qi)
	}
	return m
}

// slot maps a tracked class to its dense index, panicking on a class the
// monitor was not built for.
func (m *monitor) slot(id engine.ClassID) int {
	s := int(id - m.base)
	if s < 0 || s >= len(m.tracked) || !m.tracked[s] {
		panic(fmt.Sprintf("core: monitor does not track class %d", id))
	}
	return s
}

// trackClass marks a class tracked (dedup-safe).
func (m *monitor) trackClass(id engine.ClassID) {
	s := int(id - m.base)
	if m.tracked[s] {
		return
	}
	m.tracked[s] = true
	m.trackedIDs = append(m.trackedIDs, id)
}

// onManagedDone folds a completed managed query's velocity into its
// class's interval window.
//
//qlint:hotpath
func (m *monitor) onManagedDone(qi *patroller.QueryInfo) {
	s := int(qi.Class - m.base)
	if s < 0 || s >= len(m.hasVel) || !m.hasVel[s] {
		return
	}
	w := &m.velWindow[s]
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
	// Velocity holds each managed class's measured mean velocity.
	Velocity map[engine.ClassID]float64
	// VelocitySamples counts the completions behind each velocity (0
	// means the value is an in-flight estimate or idle default).
	VelocitySamples map[engine.ClassID]int
	// Idle marks managed classes that had neither completions nor
	// in-flight queries during the interval: no workload to speed up, so
	// any cost limit yields ideal velocity.
	Idle map[engine.ClassID]bool
	// OLTPRespTime is the OLTP class's mean response time over the
	// interval's snapshot samples (sticky from the previous interval if
	// no sample arrived).
	OLTPRespTime float64
	// OLTPSamples counts snapshot samples behind OLTPRespTime.
	OLTPSamples int
	// Arrivals counts the interval's submissions per tracked class —
	// input to workload detection.
	Arrivals map[engine.ClassID]int
	// ArrivalMeanCost is the mean timeron cost of the interval's
	// arrivals per class (0 when none arrived).
	ArrivalMeanCost map[engine.ClassID]float64
	// Population is the number of in-system (queued or executing)
	// queries per class at harvest time — with zero-think-time clients,
	// exactly the active client count. The detector's change signal.
	Population map[engine.ClassID]int
	// Dropped marks a harvest the fault injector swallowed whole: every
	// value above is zeroed and the interval's raw data is lost.
	Dropped bool
	// OLTPDropout marks an interval in which every snapshot poll was
	// fault-dropped, so OLTPRespTime is only the sticky previous value.
	OLTPDropout bool
}

// Clone returns a deep copy: the caller may hold or mutate it without
// aliasing the monitor's (or the plan history's) internal maps.
func (m Measurement) Clone() Measurement {
	m.Velocity = cloneMap(m.Velocity)
	m.VelocitySamples = cloneMap(m.VelocitySamples)
	m.Idle = cloneMap(m.Idle)
	m.Arrivals = cloneMap(m.Arrivals)
	m.ArrivalMeanCost = cloneMap(m.ArrivalMeanCost)
	m.Population = cloneMap(m.Population)
	return m
}

// cloneMap copies a per-class map, preserving nil.
func cloneMap[V any](m map[engine.ClassID]V) map[engine.ClassID]V {
	if m == nil {
		return nil
	}
	out := make(map[engine.ClassID]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// harvest closes the current interval: it computes the measurement and
// resets the windows. A fault-dropped harvest loses the interval's data
// entirely: the windows still reset (the raw samples are gone) and the
// planner receives a zeroed measurement flagged Dropped.
func (m *monitor) harvest() Measurement {
	if m.faults != nil && m.faults.DropHarvest(m.clock.Now()) {
		meas := Measurement{
			Time:            m.clock.Now(),
			Dropped:         true,
			Velocity:        make(map[engine.ClassID]float64),
			VelocitySamples: make(map[engine.ClassID]int),
			Idle:            make(map[engine.ClassID]bool),
			Arrivals:        make(map[engine.ClassID]int),
			ArrivalMeanCost: make(map[engine.ClassID]float64),
			Population:      make(map[engine.ClassID]int),
		}
		m.resetWindows()
		return meas
	}
	meas := Measurement{
		Time:            m.clock.Now(),
		Velocity:        make(map[engine.ClassID]float64),
		VelocitySamples: make(map[engine.ClassID]int),
		Idle:            make(map[engine.ClassID]bool),
	}
	// Index in-flight managed queries per class for fallback estimates.
	// Failed rows are terminal, not in flight — a progress estimate from
	// an aborted query would drag the class's velocity toward zero.
	held := make(map[engine.ClassID][]*patroller.QueryInfo)
	for _, qi := range m.pat.ControlTable() {
		if qi.State != patroller.Completed && qi.State != patroller.Failed {
			held[qi.Class] = append(held[qi.Class], qi)
		}
	}
	now := m.clock.Now()
	for _, c := range m.olapClasses {
		w := &m.velWindow[c.ID-m.base]
		switch {
		case w.Count() > 0:
			meas.Velocity[c.ID] = w.Mean()
			meas.VelocitySamples[c.ID] = w.Count()
		case len(held[c.ID]) > 0:
			// No completions: estimate velocity from in-flight progress.
			// A still-blocked query has velocity 0 so far; an executing
			// one has exec/(wait+exec) so far.
			var est stats.Summary
			for _, qi := range held[c.ID] {
				total := now - qi.SubmitTime
				if total <= 0 {
					continue
				}
				exec := 0.0
				if qi.State == patroller.Running {
					exec = now - qi.ReleaseTime
				}
				est.Add(exec / total)
			}
			if est.Count() > 0 {
				meas.Velocity[c.ID] = est.Mean()
			} else {
				meas.Velocity[c.ID] = 1
			}
		default:
			// Idle class: nothing to speed up; report the ideal and
			// flag it so the planner knows the limit is irrelevant.
			meas.Velocity[c.ID] = 1
			meas.Idle[c.ID] = true
		}
		w.Reset()
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
	meas.Arrivals = make(map[engine.ClassID]int, len(m.trackedIDs))
	meas.ArrivalMeanCost = make(map[engine.ClassID]float64, len(m.trackedIDs))
	meas.Population = make(map[engine.ClassID]int, len(m.trackedIDs))
	for _, cls := range m.trackedIDs {
		s := int(cls - m.base)
		meas.Arrivals[cls] = m.arrivals[s]
		meas.Population[cls] = m.inflight[s]
		if cs := &m.arrivalCost[s]; cs.Count() > 0 {
			meas.ArrivalMeanCost[cls] = cs.Mean()
			cs.Reset()
		}
		m.arrivals[s] = 0
	}
	return meas
}

// resetWindows discards the interval's accumulated samples — used when a
// fault drops the whole harvest.
func (m *monitor) resetWindows() {
	for i := range m.velWindow {
		m.velWindow[i].Reset()
	}
	m.oltpResp.Reset()
	for _, cls := range m.trackedIDs {
		s := int(cls - m.base)
		m.arrivals[s] = 0
		m.arrivalCost[s].Reset()
	}
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
