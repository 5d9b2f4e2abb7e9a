// Crash-consistent checkpoint/restore for mixed-workload runs.
//
// A checkpoint is taken only at a quiescent boundary — between RunUntil
// calls, when every event at or before the current time has fired — so
// each component's state is internally consistent. The snapshot records
// the run's own MixedConfig next to every component's logical state;
// closures are never serialized. Resume rebuilds the rig from that
// config by re-running the exact construction sequence RunMixed uses,
// wipes the constructor-scheduled clock events wholesale
// (Clock.Restore), and then re-arms each component's recorded future
// events with their original (time, seq, id) triples, so FIFO
// tie-breaking and all later sequence draws reproduce the uninterrupted
// run exactly.
package experiment

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runSnapshot is the gob payload of one checkpoint file: the run's
// config and shared sections, then one section per backend in roster
// order. Which exports the run attached is read off HasTrace, HasReg
// (the metrics writer) and HasDlog.
type runSnapshot struct {
	// Config is the run's own configuration, without the writers and
	// checkpoint fields the resuming caller supplies afresh.
	Config MixedConfig
	Index  int // boundary index the snapshot was taken at

	Clock      simclock.State
	Pool       workload.PoolState
	Boundaries []workload.BoundaryRef
	// Collectors follows Rig.collectors: the global collector, then each
	// backend's own on a fleet.
	Collectors []metrics.CheckpointState
	// Router and Planner are zero when the rig has none.
	Router   router.CheckpointState
	Planner  router.PlannerCheckpointState
	HasTrace bool
	Trace    trace.CheckpointState
	HasReg   bool
	Reg      obs.CheckpointState
	HasDlog  bool
	Dlog     decisionlog.CheckpointState

	Backends []backend.CheckpointState
	// Faults holds the per-backend injector states (nil without a fault
	// plan).
	Faults []fault.CheckpointState
}

// The built-in solvers are the only core.Config.Solver values a
// checkpoint can carry (validateCheckpointing rejects any other).
func init() {
	gob.Register(solver.Greedy{})
	gob.Register(solver.Grid{})
}

// boundaryStep is the distance between checkpointable boundaries: the
// control interval in Query Scheduler mode (so "-checkpoint-every N"
// means every N control ticks), one schedule period otherwise.
func boundaryStep(cfg MixedConfig) float64 {
	if cfg.Mode == QueryScheduler {
		if cfg.QS != nil && cfg.QS.ControlInterval > 0 {
			return cfg.QS.ControlInterval
		}
		return core.DefaultConfig().ControlInterval
	}
	return cfg.Sched.PeriodSeconds
}

// validateCheckpointing rejects run configurations that cannot survive
// a resume: a rotating or compressed trace sink has no stable byte
// offset to truncate back to, and gob carries neither a custom solver
// nor a func or injector field (it silently drops RetryPolicy's
// RefreshCost).
func validateCheckpointing(cfg MixedConfig) error {
	if cfg.CheckpointDir == "" {
		return errors.New("experiment: CheckpointEvery set without CheckpointDir")
	}
	if s, ok := cfg.Trace.(*trace.Sink); ok && (s.Rotating() || s.Gzipped()) {
		return errors.New("experiment: checkpointing requires a plain trace sink (no rotation, no gzip)")
	}
	if cfg.QS != nil {
		switch cfg.QS.Solver.(type) {
		case nil, solver.Greedy, solver.Grid:
		default:
			return fmt.Errorf("experiment: checkpointing cannot serialize solver %T", cfg.QS.Solver)
		}
		if cfg.QS.MonitorFaults != nil {
			return errors.New("experiment: checkpointing cannot serialize a custom core.Config.MonitorFaults; leave it nil")
		}
	}
	if cfg.Retry != nil && cfg.Retry.RefreshCost != nil {
		return errors.New("experiment: checkpointing cannot serialize a custom RetryPolicy.RefreshCost; leave it nil")
	}
	return nil
}

// snapshotRun captures the full simulation state at a quiescent boundary.
func snapshotRun(r *Rig, o *runObs, inst *workload.Installation, cfg MixedConfig, idx int) *runSnapshot {
	cfg.Trace, cfg.Metrics, cfg.Decisions = nil, nil, nil
	cfg.CheckpointEvery, cfg.CheckpointDir = 0, ""
	snap := &runSnapshot{
		Config:     cfg,
		Index:      idx,
		Clock:      r.Clock.State(),
		Pool:       r.Pool.CheckpointState(),
		Boundaries: inst.CheckpointState(r.Clock.Now()),
	}
	for _, c := range r.collectors() {
		snap.Collectors = append(snap.Collectors, c.CheckpointState())
	}
	if r.Router != nil {
		snap.Router = r.Router.CheckpointState()
	}
	if r.Planner != nil {
		snap.Planner = r.Planner.CheckpointState()
	}
	if o.tracer != nil {
		snap.HasTrace = true
		snap.Trace = o.tracer.CheckpointState()
	}
	if o.reg != nil {
		snap.HasReg = true
		snap.Reg = o.reg.CheckpointState()
	}
	if o.dlog != nil {
		snap.HasDlog = true
		snap.Dlog = o.dlog.CheckpointState()
	}
	for _, b := range r.Backends {
		snap.Backends = append(snap.Backends, b.CheckpointState())
	}
	for _, inj := range r.Faults {
		snap.Faults = append(snap.Faults, inj.CheckpointState())
	}
	return snap
}

// restore overwrites a freshly rebuilt rig with a snapshot. Order
// matters: the clock first (everything re-arms onto it), every engine
// before the pool and the patrollers (held and active entries re-link
// to the engines' rebuilt query objects), control stacks after the
// boundaries, collectors last.
func (r *Rig) restore(snap *runSnapshot, o *runObs) (*workload.Installation, error) {
	if len(snap.Backends) != len(r.Backends) || len(snap.Collectors) != len(r.collectors()) {
		return nil, fmt.Errorf("experiment: checkpoint carries %d backends for a %d-backend run",
			len(snap.Backends), len(r.Backends))
	}
	if snap.Backends[0].HasQS != (r.QS != nil) || len(snap.Faults) != len(r.Faults) {
		return nil, fmt.Errorf("experiment: checkpoint state does not match its run spec")
	}
	r.Clock.Restore(snap.Clock)
	for i, b := range r.Backends {
		b.Eng.RestoreCheckpoint(snap.Backends[i].Engine)
	}
	r.Pool.RestoreCheckpoint(snap.Pool)
	inst := r.Sched.RestoreBoundaries(r.Clock, r.Pool, nil, snap.Boundaries)
	for i, b := range r.Backends {
		b.Pat.RestoreCheckpoint(snap.Backends[i].Pat)
	}
	for i, b := range r.Backends {
		if b.QS != nil {
			b.QS.RestoreCheckpoint(snap.Backends[i].QS)
		}
	}
	if r.Router != nil {
		r.Router.RestoreCheckpoint(snap.Router)
	}
	if r.Planner != nil {
		r.Planner.RestoreCheckpoint(snap.Planner)
	}
	for i, c := range r.collectors() {
		c.RestoreCheckpoint(snap.Collectors[i])
	}
	for i, inj := range r.Faults {
		inj.RestoreCheckpoint(snap.Faults[i])
	}
	if o.tracer != nil {
		o.tracer.RestoreCheckpoint(snap.Trace)
	}
	if o.reg != nil && snap.HasReg {
		o.reg.RestoreCheckpoint(snap.Reg)
	}
	if o.dlog != nil {
		o.dlog.RestoreCheckpoint(snap.Dlog)
	}
	return inst, nil
}

// ResumeOptions configures ResumeMixed.
type ResumeOptions struct {
	// Dir is the checkpoint directory of the interrupted run.
	Dir string
	// Index selects a specific checkpoint by boundary index; 0 resumes
	// from the newest valid one.
	Index int
	// TracePath is the interrupted run's trace file. Required when the
	// run exported a trace: the file is truncated to the checkpointed
	// byte offset and appended to, reproducing the uninterrupted export.
	TracePath string
	// DecisionsPath is the interrupted run's decision-log file. Required
	// when the run exported a decision log; rewound the same way the
	// trace is.
	DecisionsPath string
	// Metrics receives the metrics exposition after the resumed run.
	// Required when the checkpointed run had a metrics writer.
	Metrics io.Writer
	// CheckpointEvery continues checkpointing the resumed run at this
	// cadence (0 = stop checkpointing).
	CheckpointEvery int
	// Warn receives corrupt-checkpoint warnings (nil = discard).
	Warn io.Writer
}

// ResumeMixed restores the newest (or selected) checkpoint from an
// interrupted run and drives the simulation to completion. The final
// period tables, metrics exposition, and trace file are byte-identical
// to a run that was never interrupted.
func ResumeMixed(opts ResumeOptions) (*MixedResult, error) {
	warn := opts.Warn
	if warn == nil {
		warn = io.Discard
	}
	snap := new(runSnapshot)
	if opts.Index > 0 {
		if err := checkpoint.Read(filepath.Join(opts.Dir, checkpoint.FileName(opts.Index)), snap); err != nil {
			return nil, err
		}
		if snap.Index != opts.Index {
			return nil, fmt.Errorf("experiment: checkpoint %d carries boundary index %d", opts.Index, snap.Index)
		}
	} else {
		idx, ok, err := checkpoint.Latest(opts.Dir, snap, warn)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("experiment: no usable checkpoint in %s", opts.Dir)
		}
		if snap.Index != idx {
			return nil, fmt.Errorf("experiment: checkpoint %d carries boundary index %d", idx, snap.Index)
		}
	}
	if snap.HasTrace != (opts.TracePath != "") {
		if snap.HasTrace {
			return nil, fmt.Errorf("experiment: checkpointed run exported a trace; TracePath is required")
		}
		return nil, fmt.Errorf("experiment: checkpointed run had no trace export; TracePath must be empty")
	}
	if snap.HasReg != (opts.Metrics != nil) {
		if snap.HasReg {
			return nil, fmt.Errorf("experiment: checkpointed run exported metrics; Metrics is required")
		}
		return nil, fmt.Errorf("experiment: checkpointed run had no metrics export; Metrics must be nil")
	}
	if snap.HasDlog != (opts.DecisionsPath != "") {
		if snap.HasDlog {
			return nil, fmt.Errorf("experiment: checkpointed run exported a decision log; DecisionsPath is required")
		}
		return nil, fmt.Errorf("experiment: checkpointed run had no decision log; DecisionsPath must be empty")
	}

	// Rewind the trace and decision-log files to the checkpointed
	// offsets: everything the interrupted run wrote after this boundary
	// is discarded and will be re-emitted, byte for byte, by the
	// resumed run.
	var tw, dw io.Writer
	var files []*rewoundFile
	closeFiles := func() error {
		var first error
		for _, rf := range files {
			if err := rf.close(); first == nil {
				first = err
			}
		}
		files = nil
		return first
	}
	fail := func(err error) (*MixedResult, error) {
		closeFiles()
		return nil, err
	}
	if snap.HasTrace {
		rf, err := rewindFile(opts.TracePath, snap.Trace.SinkBytes)
		if err != nil {
			return fail(fmt.Errorf("experiment: resume trace: %w", err))
		}
		files = append(files, rf)
		tw = rf.bw
	}
	if snap.HasDlog {
		rf, err := rewindFile(opts.DecisionsPath, snap.Dlog.SinkBytes)
		if err != nil {
			return fail(fmt.Errorf("experiment: resume decision log: %w", err))
		}
		files = append(files, rf)
		dw = rf.bw
	}

	cfg := snap.Config
	cfg.Trace, cfg.Metrics, cfg.Decisions = tw, opts.Metrics, dw
	cfg.CheckpointEvery, cfg.CheckpointDir = opts.CheckpointEvery, opts.Dir
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}

	// Reconstruction must mirror RunFleet exactly (same constructor and
	// hook-attachment order), so restored event closures and listener
	// chains line up with the checkpointed run's.
	r, o, obsErr := buildRig(cfg, true)
	if obsErr != nil {
		return fail(obsErr)
	}
	inst, err := r.restore(snap, o)
	if err != nil {
		return fail(err)
	}
	fr := r.complete(cfg, o, inst, snap.Index, nil)
	if cerr := closeFiles(); fr.ExportErr == nil {
		fr.ExportErr = cerr
	}
	return fr.MixedResult, nil
}

// rewoundFile is a resume-reopened export file: truncated to the
// checkpointed byte offset, positioned for append, buffered.
type rewoundFile struct {
	f  *os.File
	bw *bufio.Writer
}

func rewindFile(path string, offset int64) (*rewoundFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &rewoundFile{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (rf *rewoundFile) close() error {
	ferr := rf.bw.Flush()
	if cerr := rf.f.Close(); ferr == nil {
		ferr = cerr
	}
	return ferr
}
