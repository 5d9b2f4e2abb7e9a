package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// TestMixedReportColumnsSortedByClassID guards the map-order audit: the
// per-period report must print class columns in ascending-ID order and
// render identically across repeated calls, even when the caller supplies
// its class slice in a scrambled order.
func TestMixedReportColumnsSortedByClassID(t *testing.T) {
	classes := []*workload.Class{
		{ID: 3, Name: "zeta", Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.25}, Importance: 3},
		{ID: 1, Name: "alpha", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.4}, Importance: 1},
		{ID: 2, Name: "beta", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.6}, Importance: 2},
	}
	sched := workload.Schedule{
		PeriodSeconds: 30,
		Clients: []engine.ClassMap[int]{
			{1: 1, 2: 1, 3: 1},
			{1: 1, 2: 1, 3: 1},
		},
	}
	res := RunMixed(MixedConfig{Mode: NoControl, Sched: sched, Seed: 1, Classes: classes})

	for i := 1; i < len(res.Classes); i++ {
		if res.Classes[i-1].ID >= res.Classes[i].ID {
			t.Fatalf("MixedResult.Classes not sorted by ID: %v then %v",
				res.Classes[i-1].ID, res.Classes[i].ID)
		}
	}

	var first, second bytes.Buffer
	WriteMixed(&first, res)
	WriteMixed(&second, res)
	if first.String() != second.String() {
		t.Fatal("WriteMixed output is not stable across renders")
	}
	header := strings.SplitN(first.String(), "\n", 4)[2]
	alpha := strings.Index(header, "alpha")
	beta := strings.Index(header, "beta")
	zeta := strings.Index(header, "zeta")
	if alpha < 0 || beta < 0 || zeta < 0 {
		t.Fatalf("header missing class names: %q", header)
	}
	if !(alpha < beta && beta < zeta) {
		t.Fatalf("header columns not in class-ID order: %q", header)
	}
}
