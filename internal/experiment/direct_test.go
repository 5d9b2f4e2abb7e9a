package experiment

import (
	"strings"
	"testing"
)

func shortDirectConfig() DirectControlConfig {
	return DirectControlConfig{OLTPClients: 25, OLAPClients: 4, Window: 600, Seed: 1}
}

func TestRunDirectControlStrategies(t *testing.T) {
	cfg := shortDirectConfig()
	results := RunDirectControl(cfg)
	if len(results) != 4 {
		t.Fatalf("%d strategies, want 4", len(results))
	}
	byName := map[string]DirectControlResult{}
	for _, r := range results {
		byName[r.Strategy] = r
		if r.OLTPMeanRT <= 0 || r.OLTPMeanRT > 2 {
			t.Fatalf("%s: implausible OLTP RT %v", r.Strategy, r.OLTPMeanRT)
		}
		if r.OLTPPerSecond <= 0 {
			t.Fatalf("%s: no OLTP throughput", r.Strategy)
		}
	}
	none := byName["no-control"]
	direct := byName["direct (in-DBMS shares)"]
	if direct.OLTPMeanRT >= none.OLTPMeanRT {
		t.Fatalf("direct control did not improve OLTP RT: %v vs %v",
			direct.OLTPMeanRT, none.OLTPMeanRT)
	}
	// Direct control pays in OLAP throughput. In this shortened window
	// the completion counts are small, so allow counting noise; the full
	// 80-minute run in EXPERIMENTS.md shows the trade sharply.
	if direct.OLAPPerHour > none.OLAPPerHour*1.3 {
		t.Fatalf("direct control should not boost OLAP throughput: %v vs %v",
			direct.OLAPPerHour, none.OLAPPerHour)
	}
	// The direct strategies report the controller's weight.
	if direct.FinalOLTPShare <= 1 {
		t.Fatalf("direct strategy weight = %v, want raised above minimum", direct.FinalOLTPShare)
	}
	indirect := byName["indirect (QS admission)"]
	if indirect.FinalOLTPShare < 0 {
		t.Fatalf("indirect strategy share = %v", indirect.FinalOLTPShare)
	}
}

func TestDirectControlDeterministic(t *testing.T) {
	// The weighted-sharing path must be exactly reproducible: any map
	// iteration leaking into the float arithmetic would diverge here.
	// The table it renders is pinned too.
	cfg := shortDirectConfig()
	a := RunDirectControl(cfg)
	b := RunDirectControl(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("strategy %q not reproducible:\n%+v\n%+v", a[i].Strategy, a[i], b[i])
		}
	}
	var table strings.Builder
	WriteDirectControl(&table, cfg, a)
	goldenCompare(t, "direct_short_table.txt", []byte(table.String()))
}

func TestWriteDirectControl(t *testing.T) {
	cfg := shortDirectConfig()
	var b strings.Builder
	WriteDirectControl(&b, cfg, []DirectControlResult{{
		Strategy:    "x",
		OLTPMeanRT:  0.2,
		OLTPGoalMet: true,
	}})
	out := b.String()
	for _, want := range []string{"Direct vs. indirect", "met", "OLTP RT(ms)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	sched := shortSchedule()
	rep := RunReplicated(NoControl, sched, []uint64{1, 2, 3}, 0)
	if len(rep.Seeds) != 3 {
		t.Fatalf("seeds = %v", rep.Seeds)
	}
	if len(rep.Satisfaction) != 3 {
		t.Fatalf("%d satisfaction rows", len(rep.Satisfaction))
	}
	for i, s := range rep.Satisfaction {
		if s.Count() != 3 {
			t.Fatalf("class %d has %d samples", i, s.Count())
		}
		if s.Mean() < 0 || s.Mean() > 1 {
			t.Fatalf("class %d satisfaction %v out of [0,1]", i, s.Mean())
		}
	}
	if rep.HeavyOLTPRT.Count() == 0 {
		t.Fatal("no heavy-period samples")
	}
	if rep.Class2Beats1.Count() == 0 {
		t.Fatal("no differentiation samples")
	}
}

func TestDefaultSeeds(t *testing.T) {
	seeds := DefaultSeeds(4)
	if len(seeds) != 4 || seeds[0] != 1 || seeds[3] != 4 {
		t.Fatalf("seeds = %v", seeds)
	}
}

func TestWriteReplication(t *testing.T) {
	sched := shortSchedule()
	reps := []Replication{RunReplicated(NoControl, sched, []uint64{1, 2}, 0)}
	var b strings.Builder
	WriteReplication(&b, RunMixed(MixedConfig{Mode: NoControl, Sched: sched, Seed: 1}).Classes, reps)
	out := b.String()
	for _, want := range []string{"2 seeds", "no-control", "±", "P(class2 >= class1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Empty input is a no-op.
	b.Reset()
	WriteReplication(&b, nil, nil)
	if b.Len() != 0 {
		t.Fatal("empty replication rendered output")
	}
}

func TestChartsRender(t *testing.T) {
	res := RunMixed(MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 1})
	var b strings.Builder
	WriteMixedCharts(&b, res)
	if !strings.Contains(b.String(), "query-scheduler") || !strings.Contains(b.String(), "goal") {
		t.Fatalf("mixed chart malformed:\n%s", b.String())
	}
	b.Reset()
	WriteCostLimitCharts(&b, res)
	if !strings.Contains(b.String(), "cost limits") {
		t.Fatal("cost-limit chart malformed")
	}
	b.Reset()
	WriteCostLimitCharts(&b, &MixedResult{Mode: NoControl})
	if !strings.Contains(b.String(), "does not adapt") {
		t.Fatal("missing non-QS chart notice")
	}
	b.Reset()
	WriteFig2Charts(&b, []Fig2Curve{{OLTPClients: 30, OLAPClients: 8, MeanRT: []float64{0.2, 0.3}}})
	if !strings.Contains(b.String(), "(30,8)") {
		t.Fatal("fig2 chart malformed")
	}
	b.Reset()
	WriteSaturationChart(&b, []SaturationPoint{{Limit: 1000, QueriesPerHour: 10}, {Limit: 2000, QueriesPerHour: 20}})
	if !strings.Contains(b.String(), "queries/hour") {
		t.Fatal("saturation chart malformed")
	}
}
