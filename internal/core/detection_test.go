package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/perfmodel"
)

// driveOLAPLoop keeps one closed-loop client of the class submitting
// fixed-size queries through the rig's patroller.
func driveOLAPLoop(r *rig, client engine.ClientID, class engine.ClassID, cost, work float64) {
	var submit func()
	submit = func() {
		r.eng.Submit(&engine.Query{
			Client: client,
			Class:  class,
			Cost:   cost,
			Demand: engine.Demand{Work: work, CPURate: 0.2, IORate: 1},
		})
	}
	r.eng.OnDone(func(q *engine.Query) {
		if q.Client == client {
			submit()
		}
	})
	submit()
}

func TestPlanRecordCarriesWorkloadCharacterization(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	driveOLAPLoop(r, 51, 1, 1000, 20)
	driveOLAPLoop(r, 52, 1, 1000, 20)
	r.clock.RunUntil(10 * 60)
	hist := r.qs.History()
	if len(hist) == 0 {
		t.Fatal("no plan records")
	}
	last := hist[len(hist)-1]
	if last.Held {
		t.Fatal("last plan record held: no workload characterization")
	}
	row, ok := last.Class(1)
	if !ok {
		t.Fatal("plan record missing class 1")
	}
	char := row.Workload
	if char.Intervals == 0 {
		t.Fatal("class 1 never characterized")
	}
	// Two closed-loop clients: in-system population must hover at 2.
	if char.Population < 1.5 || char.Population > 2.5 {
		t.Fatalf("population = %v, want ~2", char.Population)
	}
	if char.MeanCost < 500 || char.MeanCost > 2000 {
		t.Fatalf("mean cost = %v, want ~1000", char.MeanCost)
	}
}

func TestMonitorCountsArrivalsAndPopulation(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ControlInterval = 100 })
	r.qs.Start()
	// Three queries submitted, all held by a tiny class limit... use
	// class 2 with default limits so they run; population = in-system.
	for i := 0; i < 3; i++ {
		r.eng.Submit(olapQuery(2, 500, 1e6)) // effectively never finish
	}
	r.clock.RunUntil(101)
	m := measured(r.qs.History()[0], 2)
	if !m.Managed || measured(r.qs.History()[0], 3).Managed {
		t.Fatalf("managed flags: class 2 %v, OLTP class 3 %v", m.Managed, measured(r.qs.History()[0], 3).Managed)
	}
	if m.Arrivals != 3 {
		t.Fatalf("arrivals = %v", m.Arrivals)
	}
	if m.Population != 3 {
		t.Fatalf("population = %v", m.Population)
	}
	if m.ArrivalMeanCost < 400 || m.ArrivalMeanCost > 600 {
		t.Fatalf("mean arrival cost = %v", m.ArrivalMeanCost)
	}
	// Second interval: no new arrivals, population persists.
	r.clock.RunUntil(201)
	m = measured(r.qs.History()[1], 2)
	if m.Arrivals != 0 {
		t.Fatalf("second-interval arrivals = %v", m.Arrivals)
	}
	if m.Population != 3 {
		t.Fatalf("second-interval population = %v", m.Population)
	}
}

func TestDetectorSeesShiftThroughScheduler(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	// Phase 1: one client; phase 2 (after 30 intervals): five clients.
	driveOLAPLoop(r, 61, 1, 200, 5)
	r.clock.RunUntil(30 * 60)
	for i := 0; i < 4; i++ {
		id := engine.ClientID(70 + i)
		driveOLAPLoop(r, id, 1, 200, 5)
	}
	r.clock.RunUntil(60 * 60)
	shifts := r.qs.Detector().Shifts()
	found := false
	for _, s := range shifts {
		if s.Class == 1 && s.Direction == 1 && s.Time > 30*60 {
			found = true
		}
	}
	if !found {
		t.Fatalf("5x population jump not detected; shifts = %v", shifts)
	}
}

func TestFeedForwardSchedulerRuns(t *testing.T) {
	r := newRig(t, func(c *Config) { c.FeedForward = true })
	r.qs.Start()
	driveOLAPLoop(r, 81, 1, 1000, 10)
	driveOLAPLoop(r, 82, 2, 1000, 10)
	r.clock.RunUntil(15 * 60)
	hist := r.qs.History()
	if len(hist) < 10 {
		t.Fatalf("only %d plans with feed-forward", len(hist))
	}
	for _, rec := range hist {
		if limitSum(rec) < 9999 {
			t.Fatalf("plan sum %v broken under feed-forward", limitSum(rec))
		}
	}
}

func TestFeedForwardAnchorBounded(t *testing.T) {
	r := newRig(t, func(c *Config) { c.FeedForward = true })
	r.qs.Start()
	// Build detector history so forecasts have confidence.
	driveOLAPLoop(r, 91, 1, 1000, 10)
	r.clock.RunUntil(20 * 60)
	char := r.qs.Detector().Characterization(1)
	anchor := r.qs.feedForwardAnchor(1, 0.5, char)
	// The correction is clamped to [0.5x, 2x] of the measurement.
	if anchor < 0.25-1e-9 || anchor > 1.0+1e-9 {
		t.Fatalf("anchor %v outside clamp", anchor)
	}
}

func TestThroughputModelPathRuns(t *testing.T) {
	r := newRig(t, func(c *Config) { c.OLTP.Model = perfmodel.ThroughputModel })
	r.qs.Start()
	submitOLTPLoop(r, 1)
	driveOLAPLoop(r, 55, 1, 1000, 10)
	r.clock.RunUntil(20 * 60)
	hist := r.qs.History()
	if len(hist) < 15 {
		t.Fatalf("control loop stalled under throughput model: %d plans", len(hist))
	}
	for _, rec := range hist {
		if limitSum(rec) < 9999 {
			t.Fatalf("plan sum %v", limitSum(rec))
		}
	}
}
