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
// to exercise every snapshot section: faults (aborts, misestimation, a
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

// The tentpole property: restoring a snapshot from ANY control-tick
// boundary and running to completion reproduces the uninterrupted run's
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
