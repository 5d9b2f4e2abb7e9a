package decisionlog

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/solver"
)

func simTime(t float64) simclock.Time { return simclock.Time(t) }

func testMeta() Meta {
	return Meta{
		Experiment:      "unit",
		Seed:            7,
		ControlInterval: 60,
		SLOWindow:       10,
		SLOBudget:       0.1,
		Classes: []ClassMeta{
			{ID: 1, Name: "Class1", Kind: "OLAP", Metric: "velocity", Target: 0.4, Importance: 1},
			{ID: 3, Name: "Class3", Kind: "OLTP", Metric: "avg-response-time", Target: 0.25, Importance: 3},
		},
	}
}

// testRec builds a plausible non-held PlanRecord for tick at time t.
func testRec(t float64, vel, rt float64) core.PlanRecord {
	return core.PlanRecord{
		Time: simTime(t),
		Measurement: core.Measurement{
			Classes: []core.ClassMeasurement{
				{ID: 1, Managed: true, Velocity: vel, VelocitySamples: 12},
				{ID: 3},
			},
			OLTPRespTime: rt,
			OLTPSamples:  40,
		},
		Utility:   3.5,
		OLTPSlope: -5e-6,
		Classes: []core.ClassPlan{
			{ID: 1, Limit: 20000, Predicted: vel * 1.1, Attainment: 1, BurnRate: 0,
				Ceiling: 0.8, GoalMet: true, Reachable: true,
				Provenance: core.Provenance{Model: "olap-velocity", Anchor: vel, AnchorLimit: 20000}},
			{ID: 3, Limit: 10000, Predicted: rt * 0.9, Attainment: 0.5, BurnRate: 2,
				Ceiling: 0.1, GoalMet: true, Reachable: true,
				Provenance: core.Provenance{Model: "oltp-linear", Anchor: rt}},
		},
		Search: solver.Search{Iterations: 4, Candidates: 9, RunnerUp: 3.2, HasRunnerUp: true},
	}
}

func mustLines(t *testing.T, buf *bytes.Buffer, want int) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), want, buf.String())
	}
	return lines
}

func TestWriterBackfillsActual(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.Note(testRec(60, 0.45, 0.2))
	dw.Note(testRec(120, 0.35, 0.3))
	dw.Flush()
	if dw.Err() != nil {
		t.Fatal(dw.Err())
	}
	mustLines(t, &buf, 3)

	var meta Meta
	var recs []Record
	err = ScanJSONL(bytes.NewReader(buf.Bytes()),
		func(m Meta) error { meta = m; return nil },
		func(r Record) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != Version || meta.Experiment != "unit" || len(meta.Classes) != 2 {
		t.Fatalf("meta round trip: %+v", meta)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// Tick 1 closed by tick 2's harvest: velocity 0.35 misses the 0.4
	// goal, RT 0.3 misses the 0.25 goal.
	r1 := recs[0]
	if r1.Tick != 1 || r1.T != 60 || len(r1.Actual) != 2 {
		t.Fatalf("record 1: %+v", r1)
	}
	if r1.Actual[0].Class != 1 || r1.Actual[0].Value != 0.35 || r1.Actual[0].GoalMet {
		t.Fatalf("record 1 OLAP outcome: %+v", r1.Actual[0])
	}
	if r1.Actual[1].Class != 3 || r1.Actual[1].Value != 0.3 || r1.Actual[1].GoalMet {
		t.Fatalf("record 1 OLTP outcome: %+v", r1.Actual[1])
	}
	wantErr := 0.45*1.1 - 0.35
	if d := r1.Actual[0].AbsError - wantErr; d > 1e-12 || d < -1e-12 {
		t.Fatalf("abs error %v, want %v", r1.Actual[0].AbsError, wantErr)
	}
	// Tick 2 flushed at end of run: window never closed.
	if recs[1].Tick != 2 || recs[1].Actual != nil {
		t.Fatalf("record 2: %+v", recs[1])
	}
	// PrevLimit chains from the prior tick's row.
	if recs[1].Classes[0].PrevLimit != 20000 || recs[0].Classes[0].PrevLimit != 0 {
		t.Fatalf("prev limits: %v then %v",
			recs[0].Classes[0].PrevLimit, recs[1].Classes[0].PrevLimit)
	}
}

func TestWriterHeldAndDroppedTicks(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.Note(testRec(60, 0.45, 0.2))
	held := core.PlanRecord{
		Time:        simTime(120),
		Measurement: core.Measurement{Dropped: true},
		Classes:     []core.ClassPlan{{ID: 1, Limit: 20000}, {ID: 3, Limit: 10000}},
		Held:        true,
	}
	dw.Note(held)
	dw.Note(testRec(180, 0.5, 0.21))
	dw.Flush()

	var recs []Record
	if err := ScanJSONL(bytes.NewReader(buf.Bytes()), nil,
		func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	// The dropped harvest observes nothing: tick 1's window never closes.
	if recs[0].Actual != nil {
		t.Fatalf("tick 1 gained outcomes from a dropped harvest: %+v", recs[0].Actual)
	}
	if !recs[1].Held || !recs[1].Dropped {
		t.Fatalf("tick 2 flags: %+v", recs[1])
	}
	// A held tick's rows carry no prediction but keep the limits.
	if recs[1].Classes[0].Predicted != 0 || recs[1].Classes[0].Limit != 20000 {
		t.Fatalf("tick 2 row: %+v", recs[1].Classes[0])
	}
	// Tick 2's window is closed by tick 3's good harvest, with zero
	// AbsError (no prediction existed).
	if len(recs[1].Actual) != 2 || recs[1].Actual[0].AbsError != 0 || !recs[1].Actual[0].GoalMet {
		t.Fatalf("tick 2 outcomes: %+v", recs[1].Actual)
	}
}

func TestWriterIdleClassYieldsNoOutcome(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.Note(testRec(60, 0.45, 0.2))
	next := testRec(120, 0, 0.2)
	next.Measurement.Classes[0].Idle = true
	next.Measurement.OLTPSamples = 0
	dw.Note(next)
	dw.Flush()

	var recs []Record
	if err := ScanJSONL(bytes.NewReader(buf.Bytes()), nil,
		func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if recs[0].Actual != nil {
		t.Fatalf("idle/unsampled harvest produced outcomes: %+v", recs[0].Actual)
	}
}

func TestScanJSONLErrors(t *testing.T) {
	if err := ScanJSONL(strings.NewReader(""), nil, nil); err == nil {
		t.Fatal("empty log accepted")
	}
	if err := ScanJSONL(strings.NewReader(`{"type":"decision"}`+"\n"), nil, nil); err == nil {
		t.Fatal("record-first log accepted")
	}
	bad := `{"type":"meta","version":99,"classes":[{"id":1}]}` + "\n"
	if err := ScanJSONL(strings.NewReader(bad), nil, nil); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestNewWriterValidates(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Meta{}); err == nil {
		t.Fatal("empty roster accepted")
	}
	m := testMeta()
	m.Classes = append(m.Classes, m.Classes[0])
	if _, err := NewWriter(&buf, m); err == nil {
		t.Fatal("duplicate class accepted")
	}
}

func TestMetaClassLooksUpTheRoster(t *testing.T) {
	m := testMeta()
	if c := m.Class(3); c != m.Classes[1] {
		t.Errorf("Class(3) = %+v, want %+v", c, m.Classes[1])
	}
	if c := m.Class(2); c != (ClassMeta{ID: 2, Name: "class 2"}) {
		t.Errorf("Class(2) = %+v, want only its ID and name", c)
	}
}
