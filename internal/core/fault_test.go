package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/patroller"
	"repro/internal/workload"
)

// fakeFaults drops every harvest inside [from, to) — a deterministic
// stand-in for the fault injector's MonitorFaultInjector contract.
type fakeFaults struct{ from, to float64 }

func (f fakeFaults) DropSnapshot(t float64) bool { return false }
func (f fakeFaults) DropHarvest(t float64) bool  { return t >= f.from && t < f.to }

func TestHistoryReturnsDeepCopies(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	driveOLAPLoop(r, 51, 1, 1000, 20)
	submitOLTPLoop(r, 61)
	r.clock.RunUntil(5 * 60)

	want := r.qs.History()
	if len(want) == 0 {
		t.Fatal("no plans")
	}
	wantLimit, _ := r.qs.CostLimit(1)

	// A caller scribbling on every row of the returned records must not
	// reach the scheduler's live rows — nor another caller's copy.
	got := r.qs.History()
	for i := range got {
		scribble(&got[i])
	}
	again := r.qs.History()
	if !reflect.DeepEqual(again, want) {
		t.Fatal("live history mutated through History")
	}
	if reflect.DeepEqual(got, want) {
		t.Fatal("scribble left the returned copy unchanged")
	}
	if lim, _ := r.qs.CostLimit(1); lim != wantLimit {
		t.Fatalf("scheduler's working plan mutated: %v", lim)
	}
}

func TestOnPlanHookReceivesDeepCopies(t *testing.T) {
	r := newRig(t, nil)
	var seen []string
	r.qs.OnPlan(func(rec PlanRecord) {
		seen = append(seen, fmt.Sprintf("%+v", rec))
		scribble(&rec) // hostile hook: must not reach the scheduler
	})
	r.qs.Start()
	driveOLAPLoop(r, 51, 1, 1000, 20)
	submitOLTPLoop(r, 61)
	r.clock.RunUntil(5 * 60)
	hist := r.qs.History()
	if len(seen) == 0 || len(seen) != len(hist) {
		t.Fatalf("hook fired %d times for %d records", len(seen), len(hist))
	}
	for i, rec := range hist {
		if got := fmt.Sprintf("%+v", rec); got != seen[i] {
			t.Fatalf("record %d aliased into the hook's copy:\n got %s\nwant %s", i, got, seen[i])
		}
	}
	if lim, _ := r.qs.CostLimit(1); lim == -99 {
		t.Fatal("working plan aliased into the hook's copy")
	}
}

// scribble overwrites every per-class row a record holds.
func scribble(rec *PlanRecord) {
	for i := range rec.Classes {
		rec.Classes[i] = ClassPlan{ID: -99, Limit: -99, Predicted: -99,
			Provenance: Provenance{Model: "scribbled"}, Ceiling: -99, Shortfall: -99,
			Attainment: -99, BurnRate: -99}
	}
	for i := range rec.Measurement.Classes {
		rec.Measurement.Classes[i] = ClassMeasurement{ID: -99, Velocity: -99, Arrivals: -99}
	}
}

func TestPlanRecordCloneAllocs(t *testing.T) {
	rec := PlanRecord{
		Measurement: Measurement{Classes: make([]ClassMeasurement, 4)},
		Classes:     make([]ClassPlan, 4),
	}
	var sink PlanRecord
	allocs := testing.AllocsPerRun(100, func() { sink = rec.Clone() })
	if allocs > 2 {
		t.Fatalf("Clone of a 4-class record: %v allocs, want <= 2 (one per row slice)", allocs)
	}
	_ = sink
}

func TestBlockedClassRecoversWithinTwoTicks(t *testing.T) {
	// One oversized class-1 query: costlier than the initial class limit,
	// so it sits held and the class measures velocity 0 while plainly not
	// idle. The anchored velocity floor must keep the predicted gradient
	// alive so the solver grows the limit and releases the query within
	// two control ticks of the first zero-velocity harvest.
	r := newRig(t, nil)
	r.qs.Start()
	big := olapQuery(1, 6000, 30)
	r.eng.Submit(big)
	if big.State != engine.StateQueued {
		t.Fatalf("state = %v, want held at cost 6000", big.State)
	}
	interval := DefaultConfig().ControlInterval
	r.clock.RunUntil(3 * interval)
	if big.State == engine.StateQueued {
		t.Fatalf("query still held after two ticks past the first harvest; limits = %v",
			costLimits(r.qs))
	}
	r.clock.RunUntil(3600)
	if big.State != engine.StateDone {
		t.Fatalf("state = %v", big.State)
	}
}

func TestStopDrainReleasesEveryHeldQuery(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	var queries []*engine.Query
	for i := 0; i < 40; i++ {
		q := olapQuery(1, 800, 60)
		queries = append(queries, q)
		r.eng.Submit(q)
	}
	r.clock.RunUntil(30)
	if r.pat.HeldCount() == 0 {
		t.Fatal("test needs a backlog of held queries")
	}
	r.qs.StopWith(StopDrain)
	r.clock.Run()
	if held := r.pat.HeldCount(); held != 0 {
		t.Fatalf("%d queries still held after drain", held)
	}
	for i, q := range queries {
		if q.State != engine.StateDone {
			t.Fatalf("query %d state = %v after drain", i, q.State)
		}
	}
}

func TestStopFreezeKeepsFrozenLimits(t *testing.T) {
	// StopFreeze halts the control loop but does not force-release the
	// backlog: held queries stay held until normal admission under the
	// frozen limits frees budget for them (unlike StopDrain, which
	// installs ReleaseAll and empties the hold queue immediately).
	r := newRig(t, nil)
	r.qs.Start()
	for i := 0; i < 40; i++ {
		r.eng.Submit(olapQuery(1, 800, 60))
	}
	r.clock.RunUntil(30)
	before := r.pat.HeldCount()
	if before == 0 {
		t.Fatal("test needs a backlog of held queries")
	}
	frozen := costLimits(r.qs)
	plans := len(r.qs.History())
	r.qs.Stop()
	// Every query carries 60s of work, so nothing completes before t=60:
	// with no completion pokes and no ReleaseAll, the backlog must be
	// exactly as deep as it was at the stop.
	r.clock.RunUntil(45)
	if held := r.pat.HeldCount(); held != before {
		t.Fatalf("held = %d at t=45, want %d (freeze must not force-release)", held, before)
	}
	// The plan is frozen for good: no further control ticks, no new
	// history records, limits byte-identical to the stop-time plan.
	r.clock.Run()
	if got := len(r.qs.History()); got != plans {
		t.Fatalf("history grew from %d to %d records after Stop", plans, got)
	}
	for id, lim := range costLimits(r.qs) {
		if frozen[id] != lim {
			t.Fatalf("limit[%d] drifted after Stop: %v -> %v", id, frozen[id], lim)
		}
	}
}

func TestDroppedHarvestHoldsPlan(t *testing.T) {
	interval := DefaultConfig().ControlInterval
	r := newRig(t, func(cfg *Config) {
		// Seven dropped harvests: longer than the maxHeldTicks bound.
		cfg.MonitorFaults = fakeFaults{from: 4.5 * interval, to: 11.5 * interval}
		cfg.HoldPlanOnDropout = true
	})
	reg := obs.New(func() float64 { return r.clock.Now() })
	r.qs.Instrument(reg)
	r.qs.Start()
	driveOLAPLoop(r, 51, 1, 1000, 20)
	submitOLTPLoop(r, 61)
	r.clock.RunUntil(15 * interval)

	hist := r.qs.History()
	var held, consecutive, maxConsecutive int
	for i, rec := range hist {
		if !rec.Held {
			consecutive = 0
			continue
		}
		held++
		consecutive++
		if consecutive > maxConsecutive {
			maxConsecutive = consecutive
		}
		if i == 0 {
			t.Fatal("first record held with nothing to hold")
		}
		prev := hist[i-1]
		if len(rec.Classes) != len(prev.Classes) {
			t.Fatalf("held record %d has %d rows, previous %d", i, len(rec.Classes), len(prev.Classes))
		}
		for _, row := range rec.Classes {
			if lim := limit(prev, row.ID); lim != row.Limit {
				t.Fatalf("held record %d changed limit[%d]: %v -> %v", i, row.ID, lim, row.Limit)
			}
			if row != (ClassPlan{ID: row.ID, Limit: row.Limit}) {
				t.Fatalf("held record %d carries model state: %+v", i, row)
			}
		}
	}
	if held == 0 {
		t.Fatal("no held records despite a dropped-harvest window")
	}
	if maxConsecutive > maxHeldTicks {
		t.Fatalf("%d consecutive held ticks exceeds maxHeldTicks %d", maxConsecutive, maxHeldTicks)
	}
	if maxConsecutive < maxHeldTicks {
		t.Fatalf("at most %d consecutive held ticks in a longer dropout, want the bound %d", maxConsecutive, maxHeldTicks)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "qs_plan_held_total") {
		t.Fatal("qs_plan_held_total missing from exposition")
	}
}

func TestDegradationOffFeedsDroppedHarvestThrough(t *testing.T) {
	interval := DefaultConfig().ControlInterval
	r := newRig(t, func(cfg *Config) {
		cfg.MonitorFaults = fakeFaults{from: 4.5 * interval, to: 6.5 * interval}
	})
	r.qs.Start()
	driveOLAPLoop(r, 51, 1, 1000, 20)
	r.clock.RunUntil(8 * interval)
	for _, rec := range r.qs.History() {
		if rec.Held {
			t.Fatal("plan held with degradation disabled")
		}
	}
}

// The dispatcher runs on every patroller poke: once its counters are
// registered, a call allocates nothing, on a roster whose IDs have gaps.
func TestSelectReleasesAllocs(t *testing.T) {
	classes := []*workload.Class{
		{ID: 1, Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.4}, Importance: 1},
		{ID: 4, Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.6}, Importance: 2},
		{ID: 6, Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.25}, Importance: 3},
	}
	r := newRigWithClasses(t, nil, classes)
	r.qs.Instrument(obs.New(func() float64 { return r.clock.Now() }))
	v := &patroller.View{
		Active: []*patroller.QueryInfo{{ID: 1, Class: 1, Cost: 1000}, {ID: 2, Class: 4, Cost: 5}},
		Held: []*patroller.QueryInfo{{ID: 4, Class: 1, Cost: 500}, {ID: 5, Class: 4, Cost: 9000},
			{ID: 6, Class: 4, Cost: 1}},
	}
	want := []engine.QueryID{4, 6} // query 5 is over class 4's 3333 limit and blocks only itself
	got := r.qs.SelectReleases(v)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("released %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.qs.SelectReleases(v) }); allocs != 0 {
		t.Fatalf("SelectReleases: %v allocs per call, want 0", allocs)
	}
}

// TestMeasurementObserved pins the one rule the SLO accounting and the
// decision log share for whether a harvested value counts.
func TestMeasurementObserved(t *testing.T) {
	meas := Measurement{
		Classes: []ClassMeasurement{
			{ID: 1, Managed: true, Velocity: 0.7, VelocitySamples: 3},
			{ID: 2, Managed: true, Velocity: 1, Idle: true},
			{ID: 3},
		},
		OLTPRespTime: 0.2,
		OLTPSamples:  4,
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Measurement)
		id     engine.ClassID
		kind   workload.Kind
		v      float64
		ok     bool
	}{
		{"busy OLAP", nil, 1, workload.OLAP, 0.7, true},
		{"idle OLAP", nil, 2, workload.OLAP, 0, false},
		{"OLTP", nil, 3, workload.OLTP, 0.2, true},
		{"OLTP without samples", func(m *Measurement) { m.OLTPSamples = 0 }, 3, workload.OLTP, 0, false},
		{"OLTP dropout", func(m *Measurement) { m.OLTPDropout = true }, 3, workload.OLTP, 0, false},
		{"dropped OLAP", func(m *Measurement) { m.Dropped = true }, 1, workload.OLAP, 0, false},
		{"dropped OLTP", func(m *Measurement) { m.Dropped = true }, 3, workload.OLTP, 0, false},
	} {
		m := meas.Clone()
		if tc.mutate != nil {
			tc.mutate(&m)
		}
		// The value matters only when it counts (v is 0 in the table otherwise).
		if v, ok := m.Observed(tc.id, tc.kind); ok != tc.ok || (ok && v != tc.v) {
			t.Errorf("%s: Observed = %v, %v; want %v, %v", tc.name, v, ok, tc.v, tc.ok)
		}
	}
}
