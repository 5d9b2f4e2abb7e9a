package experiment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/patroller"
	"repro/internal/workload"
)

// ckptTestConfig is a short Query Scheduler run with enough moving parts
// to make a resume re-simulate real state: faults (aborts, misestimation, a
// slowdown window) feed the injector and the retry policy, so checkpoint
// boundaries land with queries held, running, timed out, and awaiting
// retries.
func ckptTestConfig(dir string, every int) MixedConfig {
	s := workload.Schedule{PeriodSeconds: 300}
	for _, c := range [][3]int{{2, 2, 10}, {3, 1, 12}} {
		s.Clients = append(s.Clients, map[engine.ClassID]int{1: c[0], 2: c[1], 3: c[2]})
	}
	return MixedConfig{
		Mode:       QueryScheduler,
		Sched:      s,
		Seed:       3,
		Experiment: "checkpoint-test",
		Faults: &fault.Plan{
			Seed:        11,
			AbortRate:   map[engine.ClassID]float64{1: 0.1},
			Misestimate: map[engine.ClassID]float64{2: 2},
			Slowdowns:   []fault.Slowdown{{Window: fault.Window{Start: 200, End: 500}, Factor: 0.5}},
		},
		Retry:           &patroller.RetryPolicy{MaxAttempts: 2, Backoff: 30},
		CheckpointEvery: every,
		CheckpointDir:   dir,
	}
}

// refOutputs runs cfg with trace and metrics captured, returning the
// rendered tables, the metrics exposition, and the trace file bytes.
func refOutputs(t *testing.T, cfg MixedConfig, tracePath string) (tables string, metrics, trace []byte) {
	t.Helper()
	var mb bytes.Buffer
	res, err := runToFile(cfg, tracePath, &mb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("uninterrupted run reported a crash")
	}
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	return mixedTables(res), mb.Bytes(), tb
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Checkpointing must not perturb the simulation: splitting the run at
// boundaries and serializing state are pure observations.
func TestCheckpointingIsBehaviorNeutral(t *testing.T) {
	dir := t.TempDir()
	plain := ckptTestConfig("", 0)
	plainTables, plainMetrics, plainTrace := refOutputs(t, plain, filepath.Join(dir, "plain.jsonl"))

	ckpt := ckptTestConfig(filepath.Join(dir, "ckpt"), 2)
	ckptTables, ckptMetrics, ckptTrace := refOutputs(t, ckpt, filepath.Join(dir, "ckpt.jsonl"))

	if plainTables != ckptTables {
		t.Error("checkpointing changed the period tables")
	}
	if !bytes.Equal(plainMetrics, ckptMetrics) {
		t.Error("checkpointing changed the metrics exposition")
	}
	if !bytes.Equal(plainTrace, ckptTrace) {
		t.Error("checkpointing changed the trace export")
	}
	if !HasCheckpoint(filepath.Join(dir, "ckpt")) {
		t.Error("checkpointed run left no checkpoint files")
	}
}

// checkpointIndices lists the boundary indices present in dir.
func checkpointIndices(t *testing.T, dir string) []int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.bin", &n); err == nil {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		t.Fatal("no checkpoints written")
	}
	return out
}

// The tentpole property: resuming from ANY control-tick boundary and
// running to completion reproduces the uninterrupted run's
// tables, metrics exposition, and trace file byte for byte — serially
// and under the parallel runner (checkpoint files are read-only shared
// state, so concurrent resumes must be race-clean).
func TestResumeAtEveryBoundaryIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	refTrace := filepath.Join(dir, "ref.jsonl")
	refTables, refMetrics, refTraceBytes := refOutputs(t, ckptTestConfig(ckptDir, 1), refTrace)
	indices := checkpointIndices(t, ckptDir)
	sort.Ints(indices)
	pars := []int{1, 8}
	if testing.Short() {
		// Race-enabled short runs sample the boundaries (first, middle,
		// last) under the parallel runner; the full serial + parallel
		// every-boundary sweep runs without -short.
		indices = []int{indices[0], indices[len(indices)/2], indices[len(indices)-1]}
		pars = []int{8}
	}

	resumeAt := func(idx int, _ int) error {
		tmp := filepath.Join(dir, fmt.Sprintf("resume-%02d.jsonl", idx))
		copyFile(t, refTrace, tmp)
		var mb bytes.Buffer
		res, err := ResumeMixed(ResumeOptions{
			Dir:       ckptDir,
			Index:     idx,
			TracePath: tmp,
			Metrics:   &mb,
		})
		if err != nil {
			return fmt.Errorf("boundary %d: %w", idx, err)
		}
		if res.ExportErr != nil {
			return fmt.Errorf("boundary %d: export: %w", idx, res.ExportErr)
		}
		if got := mixedTables(res); got != refTables {
			return fmt.Errorf("boundary %d: period tables diverged", idx)
		}
		if !bytes.Equal(mb.Bytes(), refMetrics) {
			return fmt.Errorf("boundary %d: metrics exposition diverged", idx)
		}
		tb, err := os.ReadFile(tmp)
		if err != nil {
			return err
		}
		if !bytes.Equal(tb, refTraceBytes) {
			return fmt.Errorf("boundary %d: trace file diverged", idx)
		}
		return nil
	}

	for _, par := range pars {
		for _, err := range Map(par, indices, resumeAt) {
			if err != nil {
				t.Errorf("parallel=%d: %v", par, err)
			}
		}
	}
}

// A torn or corrupt newest checkpoint must not sink the resume: Latest
// warns, skips it, and falls back to the previous one — and the resumed
// run still reproduces the reference outputs.
func TestResumeFallsBackPastCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	refTrace := filepath.Join(dir, "ref.jsonl")
	refTables, refMetrics, refTraceBytes := refOutputs(t, ckptTestConfig(ckptDir, 1), refTrace)

	indices := checkpointIndices(t, ckptDir)
	newest := indices[0]
	for _, n := range indices {
		if n > newest {
			newest = n
		}
	}
	// Flip a payload byte in the newest file (checksum now fails) to
	// simulate on-disk corruption after a hard crash.
	path := filepath.Join(ckptDir, checkpoint.FileName(newest))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	runTrace := filepath.Join(dir, "resume.jsonl")
	copyFile(t, refTrace, runTrace)
	var mb, warn bytes.Buffer
	res, err := ResumeMixed(ResumeOptions{
		Dir:       ckptDir,
		TracePath: runTrace,
		Metrics:   &mb,
		Warn:      &warn,
	})
	if err != nil {
		t.Fatalf("resume did not fall back past the corrupt checkpoint: %v", err)
	}
	if !strings.Contains(warn.String(), "skipping") {
		t.Errorf("no corruption warning emitted: %q", warn.String())
	}
	if got := mixedTables(res); got != refTables {
		t.Error("fallback resume: period tables diverged")
	}
	if !bytes.Equal(mb.Bytes(), refMetrics) {
		t.Error("fallback resume: metrics exposition diverged")
	}
	tb, err := os.ReadFile(runTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tb, refTraceBytes) {
		t.Error("fallback resume: trace file diverged")
	}
}

// The same fallback, but with the crash shape a torn write actually
// leaves: the newest file truncated mid-payload rather than bit-flipped.
// The resume must warn, fall back to the older valid snapshot, and still
// reproduce the uninterrupted run byte for byte.
func TestResumeFallsBackPastTruncatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	refTrace := filepath.Join(dir, "ref.jsonl")
	refTables, refMetrics, refTraceBytes := refOutputs(t, ckptTestConfig(ckptDir, 1), refTrace)

	indices := checkpointIndices(t, ckptDir)
	newest := indices[0]
	for _, n := range indices {
		if n > newest {
			newest = n
		}
	}
	path := filepath.Join(ckptDir, checkpoint.FileName(newest))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	runTrace := filepath.Join(dir, "resume.jsonl")
	copyFile(t, refTrace, runTrace)
	var mb, warn bytes.Buffer
	res, err := ResumeMixed(ResumeOptions{
		Dir:       ckptDir,
		TracePath: runTrace,
		Metrics:   &mb,
		Warn:      &warn,
	})
	if err != nil {
		t.Fatalf("resume did not fall back past the truncated checkpoint: %v", err)
	}
	if !strings.Contains(warn.String(), "skipping") {
		t.Errorf("no truncation warning emitted: %q", warn.String())
	}
	if got := mixedTables(res); got != refTables {
		t.Error("fallback resume: period tables diverged")
	}
	if !bytes.Equal(mb.Bytes(), refMetrics) {
		t.Error("fallback resume: metrics exposition diverged")
	}
	tb, err := os.ReadFile(runTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tb, refTraceBytes) {
		t.Error("fallback resume: trace file diverged")
	}
}

// Resume output wiring must match the checkpointed run exactly; silent
// mismatches would produce diverging exports.
func TestResumeRejectsMismatchedOutputs(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	refTrace := filepath.Join(dir, "ref.jsonl")
	refOutputs(t, ckptTestConfig(ckptDir, 1), refTrace)

	if _, err := ResumeMixed(ResumeOptions{Dir: ckptDir, Metrics: io.Discard}); err == nil {
		t.Error("missing TracePath accepted for a run that exported a trace")
	}
	if _, err := ResumeMixed(ResumeOptions{Dir: ckptDir, TracePath: refTrace}); err == nil {
		t.Error("missing Metrics accepted for a run that exported metrics")
	}
	if _, err := ResumeMixed(ResumeOptions{Dir: t.TempDir(), TracePath: refTrace, Metrics: io.Discard}); err == nil {
		t.Error("empty checkpoint directory accepted")
	}
}

// A checkpoint directory written in the version-1 snapshot layout
// cannot be resumed: the error names the version instead of skipping
// every file as corrupt.
func TestResumeRejectsVersion1Checkpoints(t *testing.T) {
	testResumeRejectsVersion(t, 1)
}

// Version-2 files carried a separate run spec beside the snapshot; they
// are rejected the same way.
func TestResumeRejectsVersion2Checkpoints(t *testing.T) {
	testResumeRejectsVersion(t, 2)
}

// Version-3 files stored cancellable clock events under plain counter
// IDs; they are rejected too.
func TestResumeRejectsVersion3Checkpoints(t *testing.T) {
	testResumeRejectsVersion(t, 3)
}

// Version-4 files stored per-component state; version 5 stores where
// the run was and replays to it, so version 4 is rejected as well.
func TestResumeRejectsVersion4Checkpoints(t *testing.T) {
	testResumeRejectsVersion(t, 4)
}

// testResumeRejectsVersion restamps a finished run's checkpoints with
// version v and resumes them.
func testResumeRejectsVersion(t *testing.T, v uint32) {
	dir := t.TempDir()
	RunMixed(ckptTestConfig(dir, 2))
	for _, idx := range checkpointIndices(t, dir) {
		path := filepath.Join(dir, checkpoint.FileName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(data[len("QSCKPT\n"):], v)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := ResumeMixed(ResumeOptions{Dir: dir})
	want := fmt.Sprintf("unsupported version %d", v)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume from version-%d checkpoints: %v, want an error naming version %d", v, err, v)
	}
}

// E12 end to end: kill the run at several virtual times via the fault
// plan's crash, resume from the newest surviving checkpoint, and demand
// byte-identity with the never-interrupted reference — serially and with
// cells running on the worker pool.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery matrix is slow; run without -short")
	}
	for _, par := range []int{1, 8} {
		cfg := DefaultCrashRecoveryConfig()
		cfg.Parallel = par
		for _, cell := range RunCrashRecovery(cfg) {
			if !cell.Recovered() {
				t.Errorf("parallel=%d crash at t=%v (resumed from boundary %d): table=%v metrics=%v trace=%v err=%v",
					par, cell.CrashTime, cell.ResumedFrom,
					cell.TableMatch, cell.MetricsMatch, cell.TraceMatch, cell.Err)
			}
		}
	}
}

// exportRun runs cfg with its trace and decision log written to files in
// dir and checkpoints at every boundary, returning the file paths, the
// metrics exposition and the checkpoint indices in ascending order.
func exportRun(t *testing.T, dir string) (tracePath, decisionsPath string, metrics []byte, indices []int) {
	t.Helper()
	tracePath = filepath.Join(dir, "trace.jsonl")
	decisionsPath = filepath.Join(dir, "decisions.jsonl")
	df, err := os.Create(decisionsPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptTestConfig(filepath.Join(dir, "ckpt"), 1)
	cfg.Decisions = df
	var mb bytes.Buffer
	if _, err := runToFile(cfg, tracePath, &mb); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	indices = checkpointIndices(t, cfg.CheckpointDir)
	sort.Ints(indices)
	return tracePath, decisionsPath, mb.Bytes(), indices
}

func readCheckpoint(t *testing.T, dir string, idx int) *runSnapshot {
	t.Helper()
	snap := new(runSnapshot)
	if err := checkpoint.Read(filepath.Join(dir, checkpoint.FileName(idx)), snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// A hard kill can leave the export files shorter than the offsets the
// checkpoint recorded: the sinks buffer, and the checkpoint counts what
// was handed to them. The resume must regenerate the lost tails — from a
// mid-run checkpoint and from the terminal one — and not pad the files.
func TestResumeRegeneratesLostSinkTail(t *testing.T) {
	dir := t.TempDir()
	tracePath, decisionsPath, refMetrics, indices := exportRun(t, dir)
	ckptDir := filepath.Join(dir, "ckpt")
	refTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	refDecisions, err := os.ReadFile(decisionsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		idx  int
	}{
		{"mid-run", indices[len(indices)/2]},
		{"terminal", indices[len(indices)-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := readCheckpoint(t, ckptDir, tc.idx)
			if snap.TraceBytes < 500 || snap.DecisionBytes < 100 {
				t.Fatalf("offsets %d/%d too small to cut", snap.TraceBytes, snap.DecisionBytes)
			}
			tp := filepath.Join(dir, tc.name+".jsonl")
			dp := filepath.Join(dir, tc.name+"-d.jsonl")
			if err := os.WriteFile(tp, refTrace[:snap.TraceBytes-500], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dp, refDecisions[:snap.DecisionBytes-100], 0o644); err != nil {
				t.Fatal(err)
			}
			var mb bytes.Buffer
			res, err := ResumeMixed(ResumeOptions{
				Dir:           ckptDir,
				Index:         tc.idx,
				TracePath:     tp,
				DecisionsPath: dp,
				Metrics:       &mb,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ExportErr != nil {
				t.Fatal(res.ExportErr)
			}
			for _, f := range []struct {
				path string
				want []byte
			}{{tp, refTrace}, {dp, refDecisions}} {
				got, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				if n := bytes.Count(got, []byte{0}); n > 0 {
					t.Errorf("%s holds %d NUL bytes", filepath.Base(f.path), n)
				}
				if !bytes.Equal(got, f.want) {
					t.Errorf("%s diverged from the uninterrupted run", filepath.Base(f.path))
				}
			}
			if !bytes.Equal(mb.Bytes(), refMetrics) {
				t.Error("metrics exposition diverged from the uninterrupted run")
			}
		})
	}
}

// A trace file that does not match the run being resumed is an error
// naming the stream and the first differing byte, not a resume that
// appends to someone else's prefix.
func TestResumeRejectsDivergedTracePrefix(t *testing.T) {
	dir := t.TempDir()
	tracePath, decisionsPath, _, indices := exportRun(t, dir)
	ckptDir := filepath.Join(dir, "ckpt")
	mid := indices[len(indices)/2]
	snap := readCheckpoint(t, ckptDir, mid)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	at := snap.TraceBytes / 2
	data[at] ^= 0x01
	if err := os.WriteFile(tracePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ResumeMixed(ResumeOptions{
		Dir:           ckptDir,
		Index:         mid,
		TracePath:     tracePath,
		DecisionsPath: decisionsPath,
		Metrics:       io.Discard,
	})
	want := fmt.Sprintf("the trace file differs from the re-simulated run at byte %d", at)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume over a flipped trace byte: %v, want an error containing %q", err, want)
	}
}

// A checkpoint whose recorded state the re-simulation does not reach is
// an error, even when the run exported nothing to check on the way.
func TestResumeRejectsStateDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	RunMixed(ckptTestConfig(dir, 1))
	indices := checkpointIndices(t, dir)
	sort.Ints(indices)
	mid := indices[len(indices)/2]
	snap := readCheckpoint(t, dir, mid)
	snap.Config.Seed++
	if err := checkpoint.Write(dir, mid, snap); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeMixed(ResumeOptions{Dir: dir, Index: mid})
	want := fmt.Sprintf("state digest at boundary %d", mid)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume of a re-seeded checkpoint: %v, want an error containing %q", err, want)
	}
}
