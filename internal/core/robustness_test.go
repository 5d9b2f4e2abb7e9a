package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

func TestUnreachableOLTPGoalDoesNotWedge(t *testing.T) {
	// Goal 1ms is physically impossible; the scheduler must keep
	// producing valid plans (squeezing OLAP to minimums) without
	// panicking or starving the budget.
	classes := testClasses()
	classes[2].Goal = workload.Goal{Metric: workload.AvgResponseTime, Target: 0.001}
	r := newRigWithClasses(t, nil, classes)
	r.qs.Start()
	submitOLTPLoop(r, 1)
	submitOLTPLoop(r, 2)
	driveOLAPLoop(r, 31, 1, 1000, 10)
	r.clock.RunUntil(20 * 60)
	hist := r.qs.History()
	if len(hist) < 15 {
		t.Fatalf("control loop stalled: %d plans", len(hist))
	}
	last := hist[len(hist)-1]
	if math.Abs(limitSum(last)-10000) > 1e-6 {
		t.Fatalf("plan sum %v", limitSum(last))
	}
	// The violated important class holds the largest share. It does not
	// necessarily take everything: with a physically hopeless goal the
	// marginal utility of further resources vanishes (the prediction
	// cannot reach the goal), so the solver rationally stops bidding —
	// resources that cannot fix the SLO still serve the other classes.
	if limit(last, 3) < limit(last, 1) || limit(last, 3) < limit(last, 2) {
		t.Fatalf("starving class 3 not favored: %v", last.Classes)
	}
}

func TestOverloadStormDrains(t *testing.T) {
	// A burst of 200 OLAP queries lands at once; every one must
	// eventually run and complete under the class limits.
	r := newRig(t, nil)
	r.qs.Start()
	for i := 0; i < 200; i++ {
		r.eng.Submit(olapQuery(1, 800, 2))
	}
	r.clock.RunUntil(6 * 3600)
	st := r.eng.Stats()
	if st.Completed != 200 {
		t.Fatalf("only %d/200 completed after six hours", st.Completed)
	}
	if r.pat.HeldCount() != 0 {
		t.Fatalf("%d queries still held", r.pat.HeldCount())
	}
}

func TestZeroCostQueriesFlow(t *testing.T) {
	// Estimation noise can round a cost to ~0; the dispatcher must not
	// divide by it or loop.
	r := newRig(t, nil)
	r.qs.Start()
	for i := 0; i < 5; i++ {
		q := olapQuery(1, 0, 1)
		r.eng.Submit(q)
	}
	r.clock.RunUntil(60)
	if r.eng.Stats().Completed != 5 {
		t.Fatalf("zero-cost queries stuck: %d done", r.eng.Stats().Completed)
	}
}

func TestSchedulerSurvivesClientlessIntervals(t *testing.T) {
	r := newRig(t, nil)
	r.qs.Start()
	// No load at all for an hour: plans must keep flowing and stay valid.
	r.clock.RunUntil(3600)
	hist := r.qs.History()
	if len(hist) < 50 {
		t.Fatalf("%d plans over an idle hour", len(hist))
	}
	for _, rec := range hist {
		if limitSum(rec) < 9999 {
			t.Fatalf("idle plan sum %v", limitSum(rec))
		}
		if rec.Measurement.OLTPSamples != 0 {
			t.Fatal("phantom OLTP samples while idle")
		}
	}
}

// newRigWithClasses mirrors newRig with custom classes.
func newRigWithClasses(t *testing.T, mutate func(*Config), classes []*workload.Class) *rig {
	t.Helper()
	r := &rig{}
	r.clock, r.eng, r.pat, r.qs = buildScheduler(t, mutate, classes)
	return r
}

func submitOLTPLoop(r *rig, client engine.ClientID) {
	var submit func()
	submit = func() {
		r.eng.Submit(&engine.Query{
			Client: client,
			Class:  3,
			Cost:   2,
			Demand: engine.Demand{Work: 0.5, CPURate: 1},
		})
	}
	r.eng.OnDone(func(q *engine.Query) {
		if q.Client == client && q.Class == 3 {
			submit()
		}
	})
	submit()
}
