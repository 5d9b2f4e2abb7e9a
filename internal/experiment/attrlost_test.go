package experiment

import (
	"bytes"
	"testing"

	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/patroller"
	"repro/internal/workload"
)

// The qreport -attr all-aborted regression, end to end: under an
// abort-rate-1.0 fault plan the heavy OLAP class completes zero logical
// queries, yet the attribution row must carry the full goal miss (no
// NaN, shares summing exactly to the miss) instead of silently
// reporting zero.
func TestAttributionSurvivesAllAbortedClass(t *testing.T) {
	t.Parallel()
	s := workload.Schedule{PeriodSeconds: 300}
	for _, c := range [][3]int{{2, 2, 10}, {3, 1, 12}} {
		s.Clients = append(s.Clients, map[engine.ClassID]int{1: c[0], 2: c[1], 3: c[2]})
	}
	var tb, db bytes.Buffer
	cfg := MixedConfig{
		Mode:       QueryScheduler,
		Sched:      s,
		Seed:       3,
		Experiment: "attr-lost-test",
		Trace:      &tb,
		Decisions:  &db,
		Faults: &fault.Plan{
			Seed:      11,
			AbortRate: map[engine.ClassID]float64{1: 1.0},
		},
		Retry: &patroller.RetryPolicy{MaxAttempts: 2, Backoff: 30},
	}
	if res := RunMixed(cfg); res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}

	rows, _, err := decisionlog.Attribute(bytes.NewReader(db.Bytes()), bytes.NewReader(tb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var lost *decisionlog.Attribution
	for i := range rows {
		if rows[i].Class.ID == 1 {
			lost = &rows[i]
		}
	}
	if lost == nil {
		t.Fatal("class 1 missing from attribution roster")
	}
	if lost.Completed != 0 || lost.Submitted == 0 || lost.Aborted == 0 {
		t.Fatalf("abort-rate-1.0 class should be all-lost: %+v", lost)
	}
	if lost.Miss != lost.Class.Target || lost.Observed != 0 {
		t.Fatalf("all-lost class must miss its whole target: %+v", lost)
	}
	sum := lost.InfeasibleShare + lost.FaultShare + lost.WaitShare + lost.ExecShare
	if d := sum - lost.Miss; d > 1e-9 || d < -1e-9 {
		t.Fatalf("shares %v do not sum to miss %v: %+v", sum, lost.Miss, lost)
	}
	for _, v := range []float64{lost.Observed, lost.Miss, lost.InfeasibleShare, lost.FaultShare, lost.WaitShare, lost.ExecShare} {
		if v != v || v < 0 {
			t.Fatalf("NaN or negative share: %+v", lost)
		}
	}
}
