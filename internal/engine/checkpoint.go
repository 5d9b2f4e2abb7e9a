// Checkpoint support: the engine's mutable state — executing queries,
// counters, the snapshot monitor, the armed completion event — exports to
// a plain-data CheckpointState and restores onto a freshly constructed
// engine. Restore must run after the clock has been restored (the
// completion event is re-armed with its original scheduling triple) and
// before any new simulation activity.
package engine

import (
	"sort"

	"repro/internal/simclock"
)

// QueryRecord is one query's serializable state. It also serves
// controllers (the patroller) that checkpoint queries they hold outside
// the engine's active set.
type QueryRecord struct {
	ID         QueryID
	Client     ClientID
	Class      ClassID
	Template   string
	Cost       float64
	Demand     Demand
	Attempt    int
	State      State
	SubmitTime simclock.Time
	StartTime  simclock.Time
	DoneTime   simclock.Time
	Remaining  float64
}

// RecordQuery captures a query's full state for a checkpoint.
func RecordQuery(q *Query) QueryRecord {
	return QueryRecord{
		ID:         q.ID,
		Client:     q.Client,
		Class:      q.Class,
		Template:   q.Template,
		Cost:       q.Cost,
		Demand:     q.Demand,
		Attempt:    q.Attempt,
		State:      q.State,
		SubmitTime: q.SubmitTime,
		StartTime:  q.StartTime,
		DoneTime:   q.DoneTime,
		Remaining:  q.remaining,
	}
}

// RebuildQuery reconstructs a query object from its record. The query is
// detached (not in any engine's active set); the restoring controller
// re-links it wherever the original lived.
func RebuildQuery(rec QueryRecord) *Query {
	return &Query{
		ID:         rec.ID,
		Client:     rec.Client,
		Class:      rec.Class,
		Template:   rec.Template,
		Cost:       rec.Cost,
		Demand:     rec.Demand,
		Attempt:    rec.Attempt,
		State:      rec.State,
		SubmitTime: rec.SubmitTime,
		StartTime:  rec.StartTime,
		DoneTime:   rec.DoneTime,
		remaining:  rec.Remaining,
		index:      -1,
	}
}

// ClassWeightRecord is one entry of the class-weight map, serialized in
// sorted order.
type ClassWeightRecord struct {
	Class  ClassID
	Weight float64
}

// CheckpointState is the engine's serializable state at a quiescent
// boundary. Progress rates are not stored: they are a deterministic
// function of the active set, weights, and speed, recomputed on restore.
type CheckpointState struct {
	NextID        QueryID
	LastUpdate    simclock.Time
	Speed         float64
	Stats         Stats
	Snapshots     []Snapshot // sorted by client id
	HasWeights    bool
	Weights       []ClassWeightRecord // sorted by class id
	Active        []QueryRecord       // in active-slice order (listener firing order)
	HasCompletion bool
	Completion    simclock.EventRef
}

// CheckpointState captures the engine for a checkpoint. The engine must be
// quiescent: no event at or before the current time may be pending.
func (e *Engine) CheckpointState() CheckpointState {
	st := CheckpointState{
		NextID:     e.nextID,
		LastUpdate: e.lastUpdate,
		Speed:      e.speed,
		Stats:      e.stats,
		HasWeights: e.weights != nil,
	}
	for id, ok := range e.snapsSet {
		if ok {
			st.Snapshots = append(st.Snapshots, e.snaps[id])
		}
	}
	for _, s := range e.snapsFar {
		st.Snapshots = append(st.Snapshots, s)
	}
	sort.Slice(st.Snapshots, func(i, j int) bool { return st.Snapshots[i].Client < st.Snapshots[j].Client })
	for c, w := range e.weights {
		st.Weights = append(st.Weights, ClassWeightRecord{Class: c, Weight: w})
	}
	sort.Slice(st.Weights, func(i, j int) bool { return st.Weights[i].Class < st.Weights[j].Class })
	for _, q := range e.active {
		st.Active = append(st.Active, RecordQuery(q))
	}
	if e.pendingEvt != 0 {
		ref, ok := e.clock.Ref(e.pendingEvt)
		if !ok {
			panic("engine: pending completion event not found in clock")
		}
		st.HasCompletion = true
		st.Completion = ref
	}
	return st
}

// RestoreCheckpoint overwrites a freshly constructed engine with a
// checkpointed state, rebuilding the active queries in their original
// order and re-arming the completion event. The clock must already be
// restored to the checkpoint's time.
func (e *Engine) RestoreCheckpoint(st CheckpointState) {
	if len(e.active) != 0 || e.stats.Submitted != 0 {
		panic("engine: checkpoint restore onto a used engine")
	}
	e.nextID = st.NextID
	e.lastUpdate = st.LastUpdate
	e.speed = st.Speed
	e.stats = st.Stats
	e.snaps, e.snapsSet, e.snapsFar = nil, nil, nil
	for _, s := range st.Snapshots {
		e.recordSnapshot(s)
	}
	if st.HasWeights {
		e.weights = make(map[ClassID]float64, len(st.Weights))
		for _, w := range st.Weights {
			e.weights[w.Class] = w.Weight
		}
	} else {
		e.weights = nil
	}
	e.active = make([]*Query, 0, len(st.Active))
	for i, rec := range st.Active {
		q := RebuildQuery(rec)
		q.index = i
		e.active = append(e.active, q)
	}
	e.recomputeRates()
	e.pendingEvt = 0
	if st.HasCompletion {
		e.clock.RestoreEvent(st.Completion, e.completionFn)
		e.pendingEvt = st.Completion.ID
	}
}

// ActiveQuery returns the executing query with the given id, or nil —
// restoring controllers use it to re-link their references to the
// engine's rebuilt query objects.
func (e *Engine) ActiveQuery(id QueryID) *Query {
	for _, q := range e.active {
		if q.ID == id {
			return q
		}
	}
	return nil
}
