// Byte-identity goldens for fleet runs: a three-backend heterogeneous
// fleet (tables, routing table, metrics exposition, decision log, trace
// digest), the E15 -quick failover experiment (verdict table, the
// failover arm's period tables, decision log) and the E14 routing run
// (period tables, routing table). Each is checked from a serial run and
// from runs on the 8-worker pool; the first two also from a run resumed
// at a mid-run checkpoint, the fleet's routing table included.
package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// fleetGoldenArtifacts runs cfg with every export captured in memory.
func fleetGoldenArtifacts(t *testing.T, cfg MixedConfig) (res *FleetResult, trace, metrics, decisions []byte) {
	t.Helper()
	var tb, mb, db bytes.Buffer
	cfg.Trace, cfg.Metrics, cfg.Decisions = &tb, &mb, &db
	res = RunFleet(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	return res, tb.Bytes(), mb.Bytes(), db.Bytes()
}

func routingTable(res *FleetResult) []byte {
	var b bytes.Buffer
	WriteRouting(&b, res)
	return b.Bytes()
}

func compareFleetGoldens(t *testing.T, res *FleetResult, trace, metrics, decisions []byte) {
	t.Helper()
	goldenCompare(t, "fleet_tables.txt", []byte(mixedTables(res.MixedResult)))
	goldenCompare(t, "fleet_routing.txt", routingTable(res))
	goldenCompare(t, "fleet_metrics.txt", metrics)
	goldenCompare(t, "fleet_decisions.jsonl", decisions)
	goldenCompare(t, "fleet_trace.digest", goldenTraceDigest(trace))
}

func TestGoldenFleetQuick(t *testing.T) {
	res, trace, metrics, decisions := fleetGoldenArtifacts(t, fleetTestConfig())
	compareFleetGoldens(t, res, trace, metrics, decisions)
}

func TestGoldenFleetQuickParallel(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("parallel fleet goldens are slow under -race")
	}
	type artifacts struct {
		res                       *FleetResult
		trace, metrics, decisions []byte
	}
	outs := Map(8, []int{0, 1, 2}, func(int, int) artifacts {
		var tb, mb, db bytes.Buffer
		cfg := fleetTestConfig()
		cfg.Trace, cfg.Metrics, cfg.Decisions = &tb, &mb, &db
		return artifacts{RunFleet(cfg), tb.Bytes(), mb.Bytes(), db.Bytes()}
	})
	for _, o := range outs {
		if o.res.ExportErr != nil {
			t.Fatal(o.res.ExportErr)
		}
		compareFleetGoldens(t, o.res, o.trace, o.metrics, o.decisions)
	}
}

// resumeFromMiddle runs cfg with checkpoints every two boundaries,
// file-backed trace and decision log and a metrics writer, then resumes
// from the middle checkpoint over copies of those files. It returns the
// resumed result, metrics exposition and files' bytes.
func resumeFromMiddle(t *testing.T, cfg MixedConfig) (res *FleetResult, metrics, trace, decisions []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	refTrace := filepath.Join(dir, "trace.jsonl")
	refDec := filepath.Join(dir, "decisions.jsonl")
	tf, err := os.Create(refTrace)
	if err != nil {
		t.Fatal(err)
	}
	df, err := os.Create(refDec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace, cfg.Decisions, cfg.Metrics = tf, df, &bytes.Buffer{}
	if ref := RunMixed(cfg); ref.ExportErr != nil {
		t.Fatal(ref.ExportErr)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	indices := checkpointIndices(t, cfg.CheckpointDir)
	sort.Ints(indices)
	idx := indices[len(indices)/2]
	tmpTrace := filepath.Join(dir, "resumed-trace.jsonl")
	tmpDec := filepath.Join(dir, "resumed-decisions.jsonl")
	copyFile(t, refTrace, tmpTrace)
	copyFile(t, refDec, tmpDec)
	var mb bytes.Buffer
	res, err = ResumeFleet(ResumeOptions{
		Dir: cfg.CheckpointDir, Index: idx, TracePath: tmpTrace, DecisionsPath: tmpDec, Metrics: &mb,
	})
	if err != nil {
		t.Fatalf("resume at boundary %d: %v", idx, err)
	}
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	if trace, err = os.ReadFile(tmpTrace); err != nil {
		t.Fatal(err)
	}
	if decisions, err = os.ReadFile(tmpDec); err != nil {
		t.Fatal(err)
	}
	return res, mb.Bytes(), trace, decisions
}

func TestGoldenFleetQuickResume(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("fleet resume goldens are slow under -race")
	}
	res, metrics, trace, decisions := resumeFromMiddle(t, fleetTestConfig())
	goldenCompare(t, "fleet_tables.txt", []byte(mixedTables(res.MixedResult)))
	goldenCompare(t, "fleet_routing.txt", routingTable(res))
	goldenCompare(t, "fleet_metrics.txt", metrics)
	goldenCompare(t, "fleet_decisions.jsonl", decisions)
	goldenCompare(t, "fleet_trace.digest", goldenTraceDigest(trace))
}

// failoverGoldenArtifacts runs the E15 -quick experiment with the
// failover arm's decision log captured.
func failoverGoldenArtifacts() (table, armTables, decisions []byte) {
	var db bytes.Buffer
	r := RunFailover(FailoverConfig{Seed: 1, Quick: true, Decisions: &db})
	var tb bytes.Buffer
	WriteFailover(&tb, r)
	return tb.Bytes(), []byte(mixedTables(r.Failover.Result.MixedResult)), db.Bytes()
}

func TestGoldenFailoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("three fleet runs are slow under -race")
	}
	table, armTables, decisions := failoverGoldenArtifacts()
	goldenCompare(t, "failover_quick_table.txt", table)
	goldenCompare(t, "failover_quick_arm_tables.txt", armTables)
	goldenCompare(t, "failover_quick_decisions.jsonl", decisions)
}

func TestGoldenFailoverQuickParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel failover goldens are slow under -race")
	}
	type artifacts struct{ table, armTables, decisions []byte }
	outs := Map(8, []int{0, 1}, func(int, int) artifacts {
		table, armTables, decisions := failoverGoldenArtifacts()
		return artifacts{table, armTables, decisions}
	})
	for _, o := range outs {
		goldenCompare(t, "failover_quick_table.txt", o.table)
		goldenCompare(t, "failover_quick_arm_tables.txt", o.armTables)
		goldenCompare(t, "failover_quick_decisions.jsonl", o.decisions)
	}
}

func TestGoldenFailoverQuickResume(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("failover resume goldens are slow under -race")
	}
	plan := FailoverPlan(1, true)
	cfg := FailoverMixedConfig(FailoverConfig{Seed: 1, Quick: true}, &plan)
	res, _, _, decisions := resumeFromMiddle(t, cfg)
	goldenCompare(t, "failover_quick_arm_tables.txt", []byte(mixedTables(res.MixedResult)))
	goldenCompare(t, "failover_quick_decisions.jsonl", decisions)
}

// routingGoldenArtifacts runs E14 as qsim -exp routing does and renders
// its period tables and its routing table.
func routingGoldenArtifacts() (tables, routing []byte) {
	res := RunFleet(RoutingMixedConfig())
	return []byte(mixedTables(res.MixedResult)), routingTable(res)
}

func TestGoldenRouting(t *testing.T) {
	tables, routing := routingGoldenArtifacts()
	goldenCompare(t, "routing_tables.txt", tables)
	goldenCompare(t, "routing_table.txt", routing)
}

func TestGoldenRoutingParallel(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("parallel routing goldens are slow under -race")
	}
	type artifacts struct{ tables, routing []byte }
	outs := Map(8, []int{0, 1}, func(int, int) artifacts {
		tables, routing := routingGoldenArtifacts()
		return artifacts{tables, routing}
	})
	for _, o := range outs {
		goldenCompare(t, "routing_tables.txt", o.tables)
		goldenCompare(t, "routing_table.txt", o.routing)
	}
}
