// Checkpoint state for one backend: the composed snapshot of its
// engine, patroller, and (in Query Scheduler mode) scheduler. The run
// stores one of these per backend, in backend-ID order; restore replays
// them component by component, interleaved with the shared sections.
package backend

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/patroller"
)

// CheckpointState is the backend's serializable state.
type CheckpointState struct {
	Engine engine.CheckpointState
	Pat    patroller.CheckpointState
	HasQS  bool
	QS     core.CheckpointState
}

// CheckpointState captures the backend at a quiescent boundary.
func (b *Instance) CheckpointState() CheckpointState {
	st := CheckpointState{
		Engine: b.Eng.CheckpointState(),
		Pat:    b.Pat.CheckpointState(),
	}
	if b.QS != nil {
		st.HasQS = true
		st.QS = b.QS.CheckpointState()
	}
	return st
}
