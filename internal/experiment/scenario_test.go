package experiment

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

const validScenario = `{
  "name": "test",
  "mode": "query-scheduler",
  "seed": 3,
  "period_minutes": 5,
  "classes": [
    {"name": "a", "kind": "olap", "goal_metric": "velocity", "goal_target": 0.4, "importance": 1},
    {"name": "b", "kind": "oltp", "goal_metric": "response_time", "goal_target": 0.3, "importance": 2}
  ],
  "periods": [[2, 10], [3, 12]]
}`

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario(strings.NewReader(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "test" || sc.Mode != QueryScheduler || sc.Seed != 3 {
		t.Fatalf("scenario header = %+v", sc)
	}
	if len(sc.Classes) != 2 {
		t.Fatalf("%d classes", len(sc.Classes))
	}
	if sc.Classes[0].Kind != workload.OLAP || sc.Classes[1].Kind != workload.OLTP {
		t.Fatal("class kinds wrong")
	}
	if sc.Classes[1].Goal.Metric != workload.AvgResponseTime || sc.Classes[1].Goal.Target != 0.3 {
		t.Fatalf("goal = %+v", sc.Classes[1].Goal)
	}
	if sc.Sched.PeriodSeconds != 300 || sc.Sched.Periods() != 2 {
		t.Fatalf("schedule = %+v", sc.Sched)
	}
	if sc.Sched.Clients[1][sc.Classes[1].ID] != 12 {
		t.Fatal("client counts misassigned")
	}
	if sc.QS != nil {
		t.Fatal("QS overrides set without being requested")
	}
}

func TestParseScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario(strings.NewReader(`{
	  "period_minutes": 1,
	  "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}],
	  "periods": [[1]]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mode != NoControl || sc.Seed != 1 {
		t.Fatalf("defaults = %+v", sc)
	}
	if sc.Classes[0].Name != "Class 1" {
		t.Fatalf("default name = %q", sc.Classes[0].Name)
	}
}

func TestParseScenarioOverrides(t *testing.T) {
	sc, err := ParseScenario(strings.NewReader(`{
	  "mode": "query-scheduler",
	  "period_minutes": 1,
	  "system_cost_limit": 12000,
	  "control_interval_seconds": 30,
	  "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}],
	  "periods": [[1]]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.QS == nil || sc.QS.SystemCostLimit != 12000 || sc.QS.ControlInterval != 30 {
		t.Fatalf("QS overrides = %+v", sc.QS)
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":                  `{`,
		"unknown field":             `{"period_minutes": 1, "bogus": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
		"bad mode":                  `{"mode": "magic", "period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
		"no classes":                `{"period_minutes": 1, "periods": [[1]]}`,
		"bad kind":                  `{"period_minutes": 1, "classes": [{"kind": "olxp", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
		"bad metric":                `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "latency", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
		"bad velocity":              `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 1.5, "importance": 1}], "periods": [[1]]}`,
		"bad rt":                    `{"period_minutes": 1, "classes": [{"kind": "oltp", "goal_metric": "response_time", "goal_target": 0, "importance": 1}], "periods": [[1]]}`,
		"olap with an rt goal":      `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "response_time", "goal_target": 5, "importance": 1}], "periods": [[1]]}`,
		"olap with a small rt goal": `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "response_time", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
		"oltp with a velocity goal": `{"period_minutes": 1, "classes": [{"kind": "oltp", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
		"bad importance":            `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 0}], "periods": [[1]]}`,
		"two oltp": `{"period_minutes": 1, "classes": [
			{"kind": "oltp", "goal_metric": "response_time", "goal_target": 0.5, "importance": 1},
			{"kind": "oltp", "goal_metric": "response_time", "goal_target": 0.5, "importance": 2}], "periods": [[1, 1]]}`,
		"no periods":    `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": []}`,
		"bad row":       `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[1, 2]]}`,
		"negative":      `{"period_minutes": 1, "classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[-1]]}`,
		"no period len": `{"classes": [{"kind": "olap", "goal_metric": "velocity", "goal_target": 0.5, "importance": 1}], "periods": [[1]]}`,
	}
	for name, raw := range cases {
		if _, err := ParseScenario(strings.NewReader(raw)); err == nil {
			t.Fatalf("case %q: invalid scenario accepted", name)
		}
	}
}

func TestScenarioRuns(t *testing.T) {
	sc, err := ParseScenario(strings.NewReader(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	res := RunMixed(sc.MixedConfig)
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Periods != 2 || len(res.Classes) != 2 {
		t.Fatalf("result shape %d periods %d classes", res.Periods, len(res.Classes))
	}
	if res.CostLimits == nil {
		t.Fatal("query-scheduler scenario missing plan history")
	}
	// Both classes should do work.
	for i := range res.Classes {
		total := 0
		for p := 0; p < res.Periods; p++ {
			total += res.Completed[i][p]
		}
		if total == 0 {
			t.Fatalf("class %d completed nothing", i)
		}
	}
}

func TestCSVRenderers(t *testing.T) {
	sat := SaturationCSV([]SaturationPoint{{Limit: 1000, QueriesPerHour: 50, MeanRespSeconds: 2, MeanVelocity: 0.5}})
	if !strings.Contains(sat, "limit,queries_per_hour") || !strings.Contains(sat, "1000,50,2,0.5") {
		t.Fatalf("saturation csv:\n%s", sat)
	}
	f2 := Fig2CSV([]Fig2Curve{{OLTPClients: 30, OLAPClients: 8, Limits: []float64{2000}, MeanRT: []float64{0.3}}})
	if !strings.Contains(f2, "rt_30_8") || !strings.Contains(f2, "2000,0.3") {
		t.Fatalf("fig2 csv:\n%s", f2)
	}
	if Fig2CSV(nil) != "" {
		t.Fatal("empty fig2 csv should be empty")
	}
	res := RunMixed(MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 1})
	mix := MixedCSV(res)
	if !strings.Contains(mix, "class_1_metric") || !strings.Contains(mix, "class_3_p95_s") {
		t.Fatalf("mixed csv header wrong:\n%.200s", mix)
	}
	lim := CostLimitsCSV(res)
	if !strings.Contains(lim, "class_2_limit") {
		t.Fatalf("limits csv header wrong:\n%.200s", lim)
	}
	if CostLimitsCSV(&MixedResult{}) != "" {
		t.Fatal("limits csv without history should be empty")
	}
}

// A scenario with one backend must run on that backend's capacity: at
// half the default CPU the engine completes less OLAP work than on the
// default engine.
func TestSingleBackendScenarioUsesItsSpec(t *testing.T) {
	run := func(backends string) *MixedResult {
		t.Helper()
		spec := strings.Replace(validScenario, `"seed": 3,`, `"seed": 3,`+backends, 1)
		sc, err := ParseScenario(strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		return RunMixed(sc.MixedConfig)
	}
	full := run("")
	half := run(`"backends": [{"name": "half", "cpu_capacity": 1}],`)
	if mixedTables(full) == mixedTables(half) {
		t.Fatal("a half-CPU backend spec left the tables unchanged")
	}
	olap := func(res *MixedResult) int {
		n := 0
		for i, c := range res.Classes {
			if c.Kind == workload.OLAP {
				for _, v := range res.Completed[i] {
					n += v
				}
			}
		}
		return n
	}
	if olap(half) >= olap(full) {
		t.Errorf("half-CPU backend completed %d OLAP queries, default engine %d", olap(half), olap(full))
	}
}

// affinityScenario is validScenario on two backends, the first with the
// given affinity object.
func affinityScenario(affinity string) string {
	return strings.Replace(validScenario, `"seed": 3,`,
		`"seed": 3, "backends": [{"name": "b1", "affinity": `+affinity+`}, {"name": "b2"}],`, 1)
}

// A class index spelled twice ("1" and "01") resolves to the last key
// in the document on every parse, not to Go's map order.
func TestScenarioAffinityDuplicateKeyLastWins(t *testing.T) {
	for i := 0; i < 200; i++ {
		sc, err := ParseScenario(strings.NewReader(affinityScenario(`{"1": 2, "01": 3}`)))
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.Backends[0].Affinity[1]; got != 3 {
			t.Fatalf("parse %d: class 1 affinity %v, want the last key's 3", i, got)
		}
	}
}

func TestScenarioAffinityErrors(t *testing.T) {
	cases := map[string]string{
		`{"one": 2}`: "scenario: json: cannot unmarshal number one into Go struct field ScenarioBackend.backends.affinity of type int",
		`{"0": 2}`:   `scenario: backend "b1" affinity key 0 is not a class index in 1..2`,
		`{"3": 2}`:   `scenario: backend "b1" affinity key 3 is not a class index in 1..2`,
		`{"2": 0}`:   `scenario: backend "b1" affinity for class 2 must be positive, got 0`,
		`{"1": -1}`:  `scenario: backend "b1" affinity for class 1 must be positive, got -1`,
		// Several bad keys: the smallest is named, whatever the map order.
		`{"7": 1, "0": 1, "5": 1, "2": -1}`: `scenario: backend "b1" affinity key 0 is not a class index in 1..2`,
	}
	for affinity, want := range cases {
		for i := 0; i < 50; i++ {
			_, err := ParseScenario(strings.NewReader(affinityScenario(affinity)))
			if err == nil || err.Error() != want {
				t.Fatalf("affinity %s, parse %d: error %v, want %q", affinity, i, err, want)
			}
		}
	}
	sc, err := ParseScenario(strings.NewReader(affinityScenario(`{"2": 0.5, "1": 4}`)))
	if err != nil {
		t.Fatal(err)
	}
	if a := sc.Backends[0].Affinity; len(a) != 2 || a[1] != 4 || a[2] != 0.5 {
		t.Errorf("affinity = %v, want map[1:4 2:0.5]", a)
	}
}
