// Checkpoint state for the decision-log writer. The pending record is
// deliberately NOT flushed at capture: the sink offset stays at a
// written-record boundary, so crash recovery truncates the file to
// SinkBytes and the resumed writer — restored with the same tick
// counter and pending record — continues byte-identically.
package decisionlog

// StreamState is one decision stream's tick counter and pending record
// in serialized form.
type StreamState struct {
	Backend    int
	Tick       int
	HasPending bool
	Pending    Record
}

// CheckpointState is the writer's serializable state: the sink offset
// and every stream that has seen a tick, in stream order.
type CheckpointState struct {
	SinkBytes int64
	Streams   []StreamState
}

// CheckpointState captures the writer at a quiescent boundary.
func (dw *Writer) CheckpointState() CheckpointState {
	st := CheckpointState{SinkBytes: dw.bytes}
	for b, s := range dw.streams {
		if s.tick == 0 {
			continue
		}
		ss := StreamState{Backend: b, Tick: s.tick}
		if s.pending != nil {
			ss.HasPending = true
			ss.Pending = *s.pending
		}
		st.Streams = append(st.Streams, ss)
	}
	return st
}

// RestoreCheckpoint overwrites a fresh (Resume)Writer with checkpointed
// state. The caller must have truncated the sink to st.SinkBytes first.
func (dw *Writer) RestoreCheckpoint(st CheckpointState) {
	if dw.streams != nil {
		panic("decisionlog: checkpoint restore onto a used writer")
	}
	dw.bytes = st.SinkBytes
	for _, ss := range st.Streams {
		for len(dw.streams) <= ss.Backend {
			dw.streams = append(dw.streams, stream{})
		}
		s := &dw.streams[ss.Backend]
		s.tick = ss.Tick
		if ss.HasPending {
			p := ss.Pending
			s.pending = &p
		}
	}
}
