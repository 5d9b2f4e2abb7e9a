// Checkpoint and resume for mixed-workload runs, by replay.
//
// A checkpoint records where a run was, not what its state was: the
// run's own MixedConfig, the boundary index, the trace and decision-log
// byte offsets at that boundary, and a digest of the simulated state.
// The simulator is deterministic, so ResumeMixed builds the rig exactly
// as a fresh run does and re-simulates to the boundary. On the way, the
// exports it re-emits are checked against the files the interrupted run
// left. At the boundary it checks the offsets and the digest, truncates
// the files and continues. A resume that would diverge is reported, not
// finished.
//
// A terminal checkpoint (the one written at the end of the schedule) also
// carries the finished result and the metrics exposition, so resuming a
// completed run re-emits them without simulating anything.
package experiment

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runSnapshot is the gob payload of one checkpoint file.
type runSnapshot struct {
	// Config is the run's own configuration, without the writers and
	// checkpoint fields the resuming caller supplies afresh.
	Config MixedConfig
	Index  int // boundary index the snapshot was taken at
	// HasTrace, HasMetrics and HasDecisions record which exports the
	// run attached.
	HasTrace, HasMetrics, HasDecisions bool
	// TraceBytes and DecisionBytes are the sink offsets at the boundary:
	// everything the tracer emitted (flushed first), and every decision
	// record written. A terminal snapshot flushes the decision log's
	// pending records first, so its offsets are the files' final sizes.
	TraceBytes, DecisionBytes int64
	// Digest is stateDigest at the boundary.
	Digest uint64
	// Result and Metrics are set on the terminal snapshot only: the
	// finished result and the metrics exposition.
	Result  *MixedResult
	Metrics []byte
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

// boundaryTime is the virtual time of boundary idx; the last boundary is
// the schedule's end.
func boundaryTime(cfg MixedConfig, idx int) float64 {
	return min(float64(idx)*boundaryStep(cfg), cfg.Sched.Duration())
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

// stateDigest hashes the simulated state at a boundary: the clock's
// counters, which any difference in scheduled events moves, and every
// collector's aggregates up to the current period, which any difference
// in outcomes moves.
func (r *Rig) stateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putf := func(f float64) { put(math.Float64bits(f)) }
	st := r.Clock.State()
	putf(st.Now)
	put(st.Seq)
	put(uint64(st.NextID))
	last := r.Sched.PeriodAt(st.Now)
	for _, c := range r.collectors() {
		for p := 0; p <= last; p++ {
			for _, id := range c.ClassIDs() {
				a := c.Agg(p, id)
				put(uint64(a.Completed))
				put(uint64(a.Submitted))
				put(uint64(a.Failed))
				for _, s := range []*stats.Summary{&a.Velocity, &a.Resp, &a.Exec, &a.Cost} {
					put(uint64(s.Count()))
					putf(s.Mean())
					putf(s.Variance())
					putf(s.Min())
					putf(s.Max())
				}
				put(uint64(a.RespSample.Seen()))
				for _, x := range a.RespSample.Samples() {
					putf(x)
				}
			}
		}
	}
	return h.Sum64()
}

// snapshot records boundary idx of a run. A terminal snapshot flushes
// the decision log's pending records and carries the finished result
// and metrics exposition.
func (r *Rig) snapshot(cfg MixedConfig, o *runObs, idx int, terminal bool) *runSnapshot {
	snap := &runSnapshot{
		Index:        idx,
		HasTrace:     o.tracer != nil,
		HasMetrics:   o.reg != nil,
		HasDecisions: o.dlog != nil,
		Digest:       r.stateDigest(),
	}
	if terminal {
		if o.dlog != nil {
			o.dlog.Flush()
		}
		snap.Result = collect(cfg, r, nil).MixedResult
		if o.reg != nil {
			var mb bytes.Buffer
			o.reg.WriteText(&mb)
			snap.Metrics = mb.Bytes()
		}
	}
	snap.TraceBytes, snap.DecisionBytes = o.sinkBytes()
	cfg.Trace, cfg.Metrics, cfg.Decisions = nil, nil, nil
	cfg.CheckpointEvery, cfg.CheckpointDir = 0, ""
	snap.Config = cfg
	return snap
}

// ResumeOptions configures ResumeMixed.
type ResumeOptions struct {
	// Dir is the checkpoint directory of the interrupted run.
	Dir string
	// Index selects a specific checkpoint by boundary index; 0 resumes
	// from the newest valid one.
	Index int
	// TracePath is the interrupted run's trace file. Required when the
	// run exported a trace: the resumed run checks the file against what
	// it re-emits, truncates it at the checkpoint's offset and appends,
	// reproducing the uninterrupted export.
	TracePath string
	// DecisionsPath is the interrupted run's decision-log file. Required
	// when the run exported a decision log; handled the same way the
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

// ResumeMixed resumes an interrupted run from the newest (or selected)
// checkpoint and drives it to completion. It rebuilds the run from the
// checkpoint's config, re-simulates to the checkpoint's boundary with the
// plan's run-killing crash disarmed, and fails if the re-simulation does
// not arrive where the checkpoint says the run was. The final period
// tables, metrics exposition, trace and decision-log files are
// byte-identical to a run that was never interrupted.
func ResumeMixed(opts ResumeOptions) (*MixedResult, error) {
	snap, err := readSnapshot(opts)
	if err != nil {
		return nil, err
	}
	if err := checkOutputs(snap, opts); err != nil {
		return nil, err
	}
	cfg := snap.Config
	cfg.Metrics = opts.Metrics
	cfg.CheckpointEvery, cfg.CheckpointDir = opts.CheckpointEvery, opts.Dir
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	var files []*replayFile
	closeFiles := func() error {
		var first error
		for _, rf := range files {
			if err := rf.close(); first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) (*MixedResult, error) {
		closeFiles()
		return nil, err
	}
	open := func(name, path string) (*replayFile, error) {
		if path == "" {
			return nil, nil
		}
		rf, err := openReplay(name, path)
		if err != nil {
			return nil, fmt.Errorf("experiment: resume %s: %w", name, err)
		}
		files = append(files, rf)
		return rf, nil
	}
	tf, err := open("trace", opts.TracePath)
	if err != nil {
		return fail(err)
	}
	df, err := open("decision log", opts.DecisionsPath)
	if err != nil {
		return fail(err)
	}

	// A finished run whose files are intact needs no simulation: cut the
	// files to their final sizes and hand back the stored result.
	if snap.Result != nil && tf.holds(snap.TraceBytes) && df.holds(snap.DecisionBytes) {
		if err := cutFiles(snap, tf, df); err != nil {
			return fail(err)
		}
		res := *snap.Result
		if opts.Metrics != nil {
			if _, err := opts.Metrics.Write(snap.Metrics); err != nil {
				res.ExportErr = fmt.Errorf("experiment: metrics export: %w", err)
			}
		}
		if cerr := closeFiles(); res.ExportErr == nil {
			res.ExportErr = cerr
		}
		return &res, nil
	}

	if tf != nil {
		cfg.Trace = tf
	}
	if df != nil {
		cfg.Decisions = df
	}
	r, o, obsErr := buildRig(cfg)
	if obsErr != nil {
		for _, rf := range files {
			if rf.err != nil { // a diverged meta line: report the divergence itself
				return fail(rf.err)
			}
		}
		return fail(obsErr)
	}
	r.Sched.Install(r.Clock, r.Pool, nil)
	for _, inj := range r.Faults {
		inj.DisarmCrash()
	}
	r.Clock.RunUntil(boundaryTime(cfg, snap.Index))
	if snap.Result != nil && o.dlog != nil {
		o.dlog.Flush()
	}
	if err := arrived(r, o, snap, tf, df); err != nil {
		return fail(err)
	}
	fr := r.complete(cfg, o, snap.Index, nil)
	if cerr := closeFiles(); fr.ExportErr == nil {
		fr.ExportErr = cerr
	}
	return fr.MixedResult, nil
}

// readSnapshot reads the selected checkpoint, or the newest valid one.
func readSnapshot(opts ResumeOptions) (*runSnapshot, error) {
	snap := new(runSnapshot)
	idx := opts.Index
	if idx > 0 {
		if err := checkpoint.Read(filepath.Join(opts.Dir, checkpoint.FileName(idx)), snap); err != nil {
			return nil, err
		}
	} else {
		warn := opts.Warn
		if warn == nil {
			warn = io.Discard
		}
		n, ok, err := checkpoint.Latest(opts.Dir, snap, warn)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("experiment: no usable checkpoint in %s", opts.Dir)
		}
		idx = n
	}
	if snap.Index != idx {
		return nil, fmt.Errorf("experiment: checkpoint %d carries boundary index %d", idx, snap.Index)
	}
	return snap, nil
}

// checkOutputs requires the resume's export wiring to match the
// checkpointed run's exactly; a mismatch would produce diverging
// exports.
func checkOutputs(snap *runSnapshot, opts ResumeOptions) error {
	for _, c := range []struct {
		had, given bool
		what, opt  string
	}{
		{snap.HasTrace, opts.TracePath != "", "trace", "TracePath"},
		{snap.HasMetrics, opts.Metrics != nil, "metrics", "Metrics"},
		{snap.HasDecisions, opts.DecisionsPath != "", "decision-log", "DecisionsPath"},
	} {
		switch {
		case c.had && !c.given:
			return fmt.Errorf("experiment: checkpointed run has a %s export; %s is required", c.what, c.opt)
		case !c.had && c.given:
			return fmt.Errorf("experiment: checkpointed run has no %s export; %s must be unset", c.what, c.opt)
		}
	}
	return nil
}

// arrived checks that a re-simulated run reached the checkpoint's
// boundary in the checkpoint's state, then truncates the export files to
// the boundary offsets so the rest of the run appends to them.
func arrived(r *Rig, o *runObs, snap *runSnapshot, tf, df *replayFile) error {
	traceBytes, decisionBytes := o.sinkBytes()
	for _, c := range []struct {
		rf        *replayFile
		got, want int64
	}{{tf, traceBytes, snap.TraceBytes}, {df, decisionBytes, snap.DecisionBytes}} {
		if c.rf == nil {
			continue
		}
		if c.rf.err != nil {
			return c.rf.err
		}
		if c.got != c.want {
			return fmt.Errorf("experiment: resume diverged: the %s reached byte %d at boundary %d, the checkpoint says byte %d",
				c.rf.name, c.got, snap.Index, c.want)
		}
	}
	if got := r.stateDigest(); got != snap.Digest {
		return fmt.Errorf("experiment: resume diverged: state digest at boundary %d is %016x, the checkpoint says %016x",
			snap.Index, got, snap.Digest)
	}
	return cutFiles(snap, tf, df)
}

// cutFiles truncates the export files to the checkpoint's offsets.
func cutFiles(snap *runSnapshot, tf, df *replayFile) error {
	if err := tf.cut(snap.TraceBytes); err != nil {
		return err
	}
	return df.cut(snap.DecisionBytes)
}

// replayFile is the sink a resumed run writes an interrupted run's
// export file through. While the file still has bytes, each write is
// compared with them and the first difference is latched as an error
// naming the stream and the byte offset; past the file's end, writes
// append. A nil *replayFile is a stream the run does not export.
type replayFile struct {
	name string
	f    *os.File
	size int64 // bytes of the file being compared against
	pos  int64 // bytes written through the sink
	r    *bufio.Reader
	w    *bufio.Writer
	err  error
}

func openReplay(name, path string) (*replayFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &replayFile{
		name: name,
		f:    f,
		size: info.Size(),
		r:    bufio.NewReaderSize(io.NewSectionReader(f, 0, info.Size()), 1<<16),
	}, nil
}

// holds reports whether the file has at least n bytes (true for a stream
// the run does not export).
func (rf *replayFile) holds(n int64) bool { return rf == nil || rf.size >= n }

func (rf *replayFile) Write(p []byte) (int, error) {
	if rf.err != nil {
		return 0, rf.err
	}
	n := 0
	if rf.pos < rf.size {
		k := int(min(int64(len(p)), rf.size-rf.pos))
		for n < k {
			chunk := min(k-n, rf.r.Size())
			have, err := rf.r.Peek(chunk)
			if err != nil {
				rf.err = fmt.Errorf("experiment: resume: reading the %s file: %w", rf.name, err)
				return n, rf.err
			}
			for i := range have {
				if have[i] != p[n+i] {
					rf.err = fmt.Errorf("experiment: resume diverged: the %s file differs from the re-simulated run at byte %d",
						rf.name, rf.pos+int64(i))
					return n, rf.err
				}
			}
			rf.r.Discard(chunk)
			n += chunk
			rf.pos += int64(chunk)
		}
	}
	if n == len(p) {
		return n, nil
	}
	if rf.w == nil {
		rf.w = bufio.NewWriterSize(io.NewOffsetWriter(rf.f, rf.pos), 1<<20)
	}
	m, err := rf.w.Write(p[n:])
	rf.pos += int64(m)
	if err != nil {
		rf.err = err
	}
	return n + m, err
}

// cut truncates the file at offset, which the sink has reached, and
// makes every later write append there.
func (rf *replayFile) cut(offset int64) error {
	if rf == nil {
		return nil
	}
	if rf.w != nil {
		if err := rf.w.Flush(); err != nil {
			return err
		}
	}
	if err := rf.f.Truncate(offset); err != nil {
		return fmt.Errorf("experiment: resume %s: %w", rf.name, err)
	}
	rf.size, rf.pos, rf.r = offset, offset, nil
	rf.w = bufio.NewWriterSize(io.NewOffsetWriter(rf.f, offset), 1<<20)
	return nil
}

func (rf *replayFile) close() error {
	var err error
	if rf.w != nil {
		err = rf.w.Flush()
	}
	if cerr := rf.f.Close(); err == nil {
		err = cerr
	}
	return err
}
