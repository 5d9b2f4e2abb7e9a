package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// fleetTestConfig is a short heterogeneous fleet run: two paper-default
// backends plus a half-capacity one, heavy enough that routing and the
// budget split both have something to do.
func fleetTestConfig() MixedConfig {
	return MixedConfig{
		Mode: QueryScheduler,
		Sched: ConstantSchedule(300, 600, map[engine.ClassID]int{
			1: 6, 2: 4, 3: 20,
		}),
		Classes:    workload.PaperClasses(),
		Seed:       5,
		Experiment: "fleet-test",
		Backends: []backend.Spec{
			{Name: "fast-1"},
			{Name: "fast-2"},
			{Name: "slow", CPUCapacity: 1, IOCapacity: 7},
		},
	}
}

// fleetOutputs runs cfg with trace and decision log captured in memory.
func fleetOutputs(t *testing.T, cfg MixedConfig) (*FleetResult, []byte, []byte) {
	t.Helper()
	var tb, db bytes.Buffer
	cfg.Trace = &tb
	cfg.Decisions = &db
	res := RunFleet(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	return res, tb.Bytes(), db.Bytes()
}

// A run with one default backend spec and a run with no roster at all
// are the same one-backend run: both must reproduce the Query
// Scheduler goldens byte for byte. This is what keeps `-backends 1` a
// no-op.
func TestSingleBackendSpecIsByteIdenticalToLegacy(t *testing.T) {
	for _, specs := range [][]backend.Spec{nil, backend.DefaultSpecs(1)} {
		cfg := MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 1, Experiment: "golden", Backends: specs}
		trace, metrics, tables, decisions := mixedGoldenArtifacts(t, cfg)
		goldenCompare(t, "query_scheduler_trace.digest", goldenTraceDigest(trace))
		goldenCompare(t, "query_scheduler_metrics.txt", metrics)
		goldenCompare(t, "query_scheduler_tables.txt", tables)
		goldenCompare(t, "query_scheduler_decisions.jsonl", decisions)
	}
}

// The paper's static baselines run on a fleet too: each backend's
// policy gets an equal share of the limit, and the router spreads the
// load. Every arrival must end exactly once — completed, failed, or
// still in flight at the end — and the per-backend collectors must add
// up to the global one.
func TestStaticBaselinesRunOnFleet(t *testing.T) {
	for _, mode := range []Mode{NoControl, QPPriority} {
		cfg := MixedConfig{
			Mode:     mode,
			Sched:    ConstantSchedule(300, 600, map[engine.ClassID]int{1: 6, 2: 4, 3: 20}),
			Seed:     5,
			Backends: backend.DefaultSpecs(2),
			Faults:   &fault.Plan{Seed: 2, AbortRate: map[engine.ClassID]float64{1: 0.05}},
		}
		r, _, err := buildRig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Planner != nil {
			t.Errorf("%v: a static fleet built a planner", mode)
		}
		r.Run()

		var submitted, resolved, inFlight int
		for _, b := range r.Backends {
			if b.Pat.Stats().Intercepted == 0 {
				t.Errorf("%v: backend %d intercepted nothing", mode, b.ID())
			}
			inFlight += b.Eng.Active() + b.Pat.HeldCount()
		}
		for p := 0; p < cfg.Sched.Periods(); p++ {
			for _, cl := range r.Classes {
				g := r.Collector.Agg(p, cl.ID)
				submitted += g.Submitted
				resolved += g.Completed + g.Failed
				var sum metrics.ClassAgg
				for _, b := range r.Backends {
					a := b.Collector.Agg(p, cl.ID)
					sum.Submitted += a.Submitted
					sum.Completed += a.Completed
					sum.Failed += a.Failed
				}
				if sum.Submitted != g.Submitted || sum.Completed != g.Completed || sum.Failed != g.Failed {
					t.Errorf("%v: period %d class %d: backends sum to %d/%d/%d submitted/completed/failed, global %d/%d/%d",
						mode, p, cl.ID, sum.Submitted, sum.Completed, sum.Failed, g.Submitted, g.Completed, g.Failed)
				}
			}
		}
		if submitted == 0 || resolved+inFlight != submitted {
			t.Errorf("%v: %d arrivals, %d resolved + %d in flight", mode, submitted, resolved, inFlight)
		}
		for i, n := range r.Router.Routed() {
			if n == 0 {
				t.Errorf("%v: backend %d was never routed to", mode, i+1)
			}
		}
	}
}

// A fleet run is as deterministic as a single-engine one: identical
// bytes for identical configs.
func TestFleetRunIsDeterministic(t *testing.T) {
	res1, trace1, dec1 := fleetOutputs(t, fleetTestConfig())
	res2, trace2, dec2 := fleetOutputs(t, fleetTestConfig())
	if !bytes.Equal(trace1, trace2) {
		t.Error("fleet trace bytes differ between identical runs")
	}
	if !bytes.Equal(dec1, dec2) {
		t.Error("fleet decision-log bytes differ between identical runs")
	}
	if mixedTables(res1.MixedResult) != mixedTables(res2.MixedResult) {
		t.Error("fleet period tables differ between identical runs")
	}
}

// The router must shift load away from the half-capacity backend: it
// reaches saturation sooner, so the load scorer repels work earlier
// than on the full-capacity boxes.
func TestFleetRoutingShiftsLoadOffSlowBackend(t *testing.T) {
	res, traceBytes, _ := fleetOutputs(t, fleetTestConfig())

	if len(res.Routed) != 3 {
		t.Fatalf("routed tallies for %d backends, want 3", len(res.Routed))
	}
	slow := res.Routed[2]
	for i := 0; i < 2; i++ {
		if res.Routed[i] <= slow {
			t.Errorf("backend %d (fast) routed %d queries, slow routed %d — router did not shift load",
				i+1, res.Routed[i], slow)
		}
	}
	var total int64
	for _, n := range res.Routed {
		total += n
	}
	if slow >= total/3 {
		t.Errorf("slow backend got %d of %d routed queries — at least a fair share", slow, total)
	}
	// Every routing decision lands in the trace.
	routeLines := bytes.Count(traceBytes, []byte(`"kind":"route"`))
	if int64(routeLines) != total {
		t.Errorf("trace carries %d route events for %d routed queries", routeLines, total)
	}

	// The planner actuates the split: by the end the slow backend's
	// budget share should not exceed either fast backend's.
	if len(res.Plans) == 0 {
		t.Fatal("no fleet plans recorded")
	}
	final := res.Plans[len(res.Plans)-1].Limits
	if final[2] > final[0] || final[2] > final[1] {
		t.Errorf("final budget split %v gives the slow backend the largest share", final)
	}
}

// The per-backend decision streams surface in qreport's summary, one
// section per backend with its own SLO accounting.
func TestFleetDecisionLogSummarizesPerBackend(t *testing.T) {
	_, _, dec := fleetOutputs(t, fleetTestConfig())
	var sb strings.Builder
	if err := decisionlog.Summarize(&sb, bytes.NewReader(dec)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"3 backends",
		`backend 1 "fast-1"`,
		`backend 3 "slow": cpu 1, io 7`,
		"=== backend 1: fast-1 ===",
		"=== backend 2: fast-2 ===",
		"=== backend 3: slow ===",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet summary missing %q\n%s", want, out)
		}
	}
}

// Resuming a fleet checkpoint from any boundary must reproduce the
// uninterrupted run's outputs byte for byte, exactly like the
// single-engine resume contract.
func TestFleetResumeIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	cfg := fleetTestConfig()
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = ckptDir

	refTrace := filepath.Join(dir, "ref-trace.jsonl")
	refDec := filepath.Join(dir, "ref-decisions.jsonl")
	tf, err := os.Create(refTrace)
	if err != nil {
		t.Fatal(err)
	}
	df, err := os.Create(refDec)
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	cfg.Trace = tf
	cfg.Decisions = df
	cfg.Metrics = &mb
	res := RunFleet(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	refTables := mixedTables(res.MixedResult)
	refMetrics := append([]byte(nil), mb.Bytes()...)
	refTraceBytes, err := os.ReadFile(refTrace)
	if err != nil {
		t.Fatal(err)
	}
	refDecBytes, err := os.ReadFile(refDec)
	if err != nil {
		t.Fatal(err)
	}

	indices := checkpointIndices(t, ckptDir)
	sort.Ints(indices)
	if testing.Short() {
		// Sample the boundaries (first, middle, last) under -short; the
		// full every-boundary sweep runs without it.
		indices = []int{indices[0], indices[len(indices)/2], indices[len(indices)-1]}
	}
	for _, idx := range indices {
		tmpTrace := filepath.Join(dir, fmt.Sprintf("resume-%02d-trace.jsonl", idx))
		tmpDec := filepath.Join(dir, fmt.Sprintf("resume-%02d-decisions.jsonl", idx))
		copyFile(t, refTrace, tmpTrace)
		copyFile(t, refDec, tmpDec)
		var rm bytes.Buffer
		rres, err := ResumeMixed(ResumeOptions{
			Dir:           ckptDir,
			Index:         idx,
			TracePath:     tmpTrace,
			DecisionsPath: tmpDec,
			Metrics:       &rm,
		})
		if err != nil {
			t.Fatalf("boundary %d: %v", idx, err)
		}
		if rres.ExportErr != nil {
			t.Fatalf("boundary %d: export: %v", idx, rres.ExportErr)
		}
		if got := mixedTables(rres); got != refTables {
			t.Errorf("boundary %d: period tables diverged", idx)
		}
		if !bytes.Equal(rm.Bytes(), refMetrics) {
			t.Errorf("boundary %d: metrics exposition diverged", idx)
		}
		tb, err := os.ReadFile(tmpTrace)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tb, refTraceBytes) {
			t.Errorf("boundary %d: trace file diverged", idx)
		}
		db, err := os.ReadFile(tmpDec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(db, refDecBytes) {
			t.Errorf("boundary %d: decision log diverged", idx)
		}
	}
}

// A static-baseline fleet with a backend crash resumes byte-identically
// from every period boundary, like every other run shape.
func TestStaticFleetResumeIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	cfg := MixedConfig{
		Mode:     QPPriority,
		Sched:    ConstantSchedule(300, 600, map[engine.ClassID]int{1: 6, 2: 4, 3: 20}),
		Seed:     5,
		Backends: backend.DefaultSpecs(2),
		Faults: &fault.Plan{
			Seed:           2,
			AbortRate:      map[engine.ClassID]float64{1: 0.05},
			BackendCrashes: []fault.BackendCrash{{Backend: 2, At: 250, RecoverAt: 500}},
		},
		CheckpointEvery: 1,
		CheckpointDir:   ckptDir,
	}
	refTrace := filepath.Join(dir, "ref.jsonl")
	refTables, refMetrics, refTraceBytes := refOutputs(t, cfg, refTrace)
	if !bytes.Contains(refTraceBytes, []byte(`"kind":"reroute"`)) {
		t.Fatal("the crash re-dispatched nothing; the test exercises no failover")
	}
	for _, idx := range checkpointIndices(t, ckptDir) {
		tmp := filepath.Join(dir, fmt.Sprintf("resume-%02d.jsonl", idx))
		copyFile(t, refTrace, tmp)
		var mb bytes.Buffer
		res, err := ResumeMixed(ResumeOptions{Dir: ckptDir, Index: idx, TracePath: tmp, Metrics: &mb})
		if err != nil {
			t.Fatalf("boundary %d: %v", idx, err)
		}
		if mixedTables(res) != refTables {
			t.Errorf("boundary %d: period tables diverged", idx)
		}
		if !bytes.Equal(mb.Bytes(), refMetrics) {
			t.Errorf("boundary %d: metrics exposition diverged", idx)
		}
		if tb, err := os.ReadFile(tmp); err != nil || !bytes.Equal(tb, refTraceBytes) {
			t.Errorf("boundary %d: trace file diverged (%v)", idx, err)
		}
	}
}
