// Crash-consistent checkpoint/restore for mixed-workload runs.
//
// A checkpoint is taken only at a quiescent boundary — between RunUntil
// calls, when every event at or before the current time has fired — so
// each component's state is internally consistent. The snapshot records
// the run's construction parameters (RunSpec) next to every component's
// logical state; closures are never serialized. Resume rebuilds the rig
// by re-running the exact construction sequence RunMixed uses, wipes the
// constructor-scheduled clock events wholesale (Clock.Restore), and then
// re-arms each component's recorded future events with their original
// (time, seq, id) triples, so FIFO tie-breaking and all later sequence
// draws reproduce the uninterrupted run exactly.
package experiment

import (
	"bufio"
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
	"repro/internal/patroller"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RetrySpec mirrors patroller.RetryPolicy without its RefreshCost func
// (which cannot be serialized; resume re-wires it to the injector the
// same way RunMixed does).
type RetrySpec struct {
	MaxAttempts    int
	Backoff        float64
	TimeoutFloor   float64
	TimeoutPerCost float64
}

// RunSpec is the gob-safe record of how a checkpointed run was
// constructed. Resume rebuilds an identical rig from it; only the output
// writers are supplied fresh by the resuming caller.
type RunSpec struct {
	Mode       Mode
	Seed       uint64
	Sched      workload.Schedule
	Classes    []*workload.Class
	Experiment string
	// HasQSCfg records whether the run carried a custom core.Config. The
	// config's interface fields travel out of band: SolverName +
	// GreedyMaxMoves stand in for Config.Solver, and MonitorFaults is
	// re-wired to the rebuilt injector.
	HasQSCfg       bool
	QS             core.Config
	SolverName     string
	GreedyMaxMoves int
	HasFaults      bool
	Faults         fault.Plan
	HasRetry       bool
	Retry          RetrySpec
	// HasTrace/HasMetrics/HasDecisions record which exports were
	// attached; resume must re-attach the same set or the outputs would
	// diverge.
	HasTrace     bool
	HasMetrics   bool
	HasDecisions bool
	// Streaming records whether the pool used the streaming client
	// generator; resume must rebuild it the same way.
	Streaming bool
	// Backends records the roster (nil = one paper-default backend);
	// resume rebuilds the same one.
	Backends []backend.Spec
	// NoMitigation records MixedConfig.DisableFleetMitigation; resume
	// must rebuild the same (absent) failover wiring.
	NoMitigation bool
}

// runSnapshot is the gob payload of one checkpoint file: the run's
// shared sections, then one section per backend in roster order.
type runSnapshot struct {
	Spec  RunSpec
	Index int // boundary index the snapshot was taken at

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

// solverSpec names a solver for the run spec. Only the built-in
// (stateless) solvers are serializable.
func solverSpec(s solver.Solver) (name string, greedyMaxMoves int) {
	switch v := s.(type) {
	case nil:
		return "", 0
	case solver.Greedy:
		return "greedy", v.MaxMoves
	case solver.Grid:
		return "grid", 0
	default:
		panic(fmt.Sprintf("experiment: checkpointing cannot serialize solver %T", s))
	}
}

// solverFromSpec inverts solverSpec. Unknown names are an error (the
// checkpoint may come from a newer build), not a panic.
func solverFromSpec(name string, greedyMaxMoves int) (solver.Solver, error) {
	switch name {
	case "":
		return nil, nil
	case "greedy":
		return solver.Greedy{MaxMoves: greedyMaxMoves}, nil
	case "grid":
		return solver.Grid{}, nil
	default:
		return nil, fmt.Errorf("experiment: checkpoint names unknown solver %q", name)
	}
}

// specFromConfig records a checkpointable run's construction parameters.
// It panics on configurations that cannot round-trip through a
// checkpoint (custom solver or RefreshCost closures).
func specFromConfig(cfg MixedConfig, classes []*workload.Class) RunSpec {
	spec := RunSpec{
		Mode:         cfg.Mode,
		Seed:         cfg.Seed,
		Sched:        cfg.Sched,
		Classes:      classes,
		Experiment:   cfg.Experiment,
		HasTrace:     cfg.Trace != nil,
		HasMetrics:   cfg.Metrics != nil,
		HasDecisions: cfg.Decisions != nil,
		Streaming:    cfg.StreamingClients,
		Backends:     cfg.Backends,
		NoMitigation: cfg.DisableFleetMitigation,
	}
	if cfg.QS != nil {
		spec.HasQSCfg = true
		qc := *cfg.QS
		spec.SolverName, spec.GreedyMaxMoves = solverSpec(qc.Solver)
		qc.Solver = nil
		qc.MonitorFaults = nil
		spec.QS = qc
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		spec.HasFaults = true
		spec.Faults = *cfg.Faults
	}
	if cfg.Retry != nil {
		if cfg.Retry.RefreshCost != nil {
			panic("experiment: checkpointing cannot serialize a custom RetryPolicy.RefreshCost; leave it nil")
		}
		spec.HasRetry = true
		spec.Retry = RetrySpec{
			MaxAttempts:    cfg.Retry.MaxAttempts,
			Backoff:        cfg.Retry.Backoff,
			TimeoutFloor:   cfg.Retry.TimeoutFloor,
			TimeoutPerCost: cfg.Retry.TimeoutPerCost,
		}
	}
	return spec
}

// config rebuilds the MixedConfig a resumed run is constructed from. The
// writers are the resuming caller's; everything else comes from the spec.
func (s *RunSpec) config(tw, mw, dw io.Writer) (MixedConfig, error) {
	cfg := MixedConfig{
		Mode:       s.Mode,
		Sched:      s.Sched,
		Seed:       s.Seed,
		Classes:    s.Classes,
		Experiment: s.Experiment,
		Trace:      tw,
		Metrics:    mw,
		Decisions:  dw,

		StreamingClients:       s.Streaming,
		Backends:               s.Backends,
		DisableFleetMitigation: s.NoMitigation,
	}
	if s.HasQSCfg {
		qc := s.QS
		sol, err := solverFromSpec(s.SolverName, s.GreedyMaxMoves)
		if err != nil {
			return MixedConfig{}, err
		}
		qc.Solver = sol
		cfg.QS = &qc
	}
	if s.HasFaults {
		p := s.Faults
		cfg.Faults = &p
	}
	if s.HasRetry {
		cfg.Retry = &patroller.RetryPolicy{
			MaxAttempts:    s.Retry.MaxAttempts,
			Backoff:        s.Retry.Backoff,
			TimeoutFloor:   s.Retry.TimeoutFloor,
			TimeoutPerCost: s.Retry.TimeoutPerCost,
		}
	}
	return cfg, nil
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

// validateCheckpointing rejects run configurations whose outputs cannot
// survive a resume: a rotating or compressed trace sink has no stable
// byte offset to truncate back to.
func validateCheckpointing(cfg MixedConfig) {
	if cfg.CheckpointDir == "" {
		panic("experiment: CheckpointEvery set without CheckpointDir")
	}
	if s, ok := cfg.Trace.(*trace.Sink); ok && (s.Rotating() || s.Gzipped()) {
		panic("experiment: checkpointing requires a plain trace sink (no rotation, no gzip)")
	}
}

// snapshotRun captures the full simulation state at a quiescent boundary.
func snapshotRun(r *Rig, o *runObs, inst *workload.Installation, spec *RunSpec, idx int) *runSnapshot {
	snap := &runSnapshot{
		Spec:       *spec,
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
	if snap.Spec.HasMetrics != (opts.Metrics != nil) {
		if snap.Spec.HasMetrics {
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

	cfg, err := snap.Spec.config(tw, opts.Metrics, dw)
	if err != nil {
		return fail(err)
	}
	cfg.CheckpointEvery = opts.CheckpointEvery
	cfg.CheckpointDir = opts.Dir

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
	spec := snap.Spec
	fr := r.complete(cfg, o, inst, &spec, snap.Index, nil)
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
