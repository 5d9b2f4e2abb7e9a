package experiment

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/perfmodel"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// uniformSolver is a solver a checkpoint cannot name.
type uniformSolver struct{}

func (uniformSolver) Solve(p solver.Problem, start solver.Plan) solver.Plan { return start }

// dropNothing is a monitor fault source a checkpoint cannot carry.
type dropNothing struct{}

func (dropNothing) DropSnapshot(float64) bool { return false }
func (dropNothing) DropHarvest(float64) bool  { return false }

// Validate returns an error, not a panic, for every configuration a
// run or a checkpoint would reject.
func TestValidateRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	sink := func(name string, rotate int64) *trace.Sink {
		s, err := trace.OpenSink(filepath.Join(dir, name), rotate)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	qs := func(edit func(*core.Config)) *core.Config {
		qc := core.DefaultConfig()
		edit(&qc)
		return &qc
	}
	refresh := func(*engine.Query) float64 { return 1 }
	cases := []struct {
		name string
		edit func(*MixedConfig)
		want string // "" = valid
	}{
		{"checkpointed", func(*MixedConfig) {}, ""},
		{"grid solver", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.Solver = solver.Grid{} }) }, ""},
		{"bounded greedy", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.Solver = solver.Greedy{MaxMoves: 3} }) }, ""},
		{"plain trace sink", func(c *MixedConfig) { c.Trace = sink("plain.jsonl", 0) }, ""},
		{"no checkpoint dir", func(c *MixedConfig) { c.CheckpointDir = "" },
			"experiment: CheckpointEvery set without CheckpointDir"},
		{"rotating trace sink", func(c *MixedConfig) { c.Trace = sink("rot.jsonl", 1<<20) },
			"experiment: checkpointing requires a plain trace sink (no rotation, no gzip)"},
		{"gzipped trace sink", func(c *MixedConfig) { c.Trace = sink("t.jsonl.gz", 0) },
			"experiment: checkpointing requires a plain trace sink (no rotation, no gzip)"},
		{"custom solver", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.Solver = uniformSolver{} }) },
			"experiment: checkpointing cannot serialize solver experiment.uniformSolver"},
		{"monitor faults", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.MonitorFaults = dropNothing{} }) },
			"experiment: checkpointing cannot serialize a custom core.Config.MonitorFaults; leave it nil"},
		{"refresh cost", func(c *MixedConfig) { c.Retry.RefreshCost = refresh },
			"experiment: checkpointing cannot serialize a custom RetryPolicy.RefreshCost; leave it nil"},
		{"retry without attempts", func(c *MixedConfig) { c.Retry.MaxAttempts = 0 },
			"patroller: retry MaxAttempts 0 must be >= 1"},
		{"negative backoff", func(c *MixedConfig) { c.Retry.Backoff = -1 },
			"patroller: retry timing must be finite and >= 0 (backoff -1, floor 0, per-cost 0)"},
		{"NaN backoff", func(c *MixedConfig) { c.Retry.Backoff = math.NaN() },
			"patroller: retry timing must be finite and >= 0 (backoff NaN, floor 0, per-cost 0)"},
		{"NaN timeout floor", func(c *MixedConfig) { c.Retry.TimeoutFloor = math.NaN() },
			"patroller: retry timing must be finite and >= 0 (backoff 30, floor NaN, per-cost 0)"},
		{"infinite per-cost timeout", func(c *MixedConfig) { c.Retry.TimeoutPerCost = math.Inf(1) },
			"patroller: retry timing must be finite and >= 0 (backoff 30, floor 0, per-cost +Inf)"},
		{"scheduler config", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.PlanStep = 0 }) },
			"core: plan step 0 out of range"},
		{"throughput OLTP model", func(c *MixedConfig) {
			c.QS = qs(func(q *core.Config) { q.OLTP.Model = perfmodel.ThroughputModel })
		}, ""},
		{"OLTP window of 1", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.OLTP.Window = 1 }) },
			"perfmodel: OLTP window 1 must be at least 2"},
		{"OLTP window below MinPoints", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.OLTP.Window = 3 }) },
			"perfmodel: OLTP MinPoints 4 exceeds the window 3, so the slope would never be fitted"},
		{"unknown OLTP model", func(c *MixedConfig) { c.QS = qs(func(q *core.Config) { q.OLTP.Model = "oltp-neural" }) },
			`perfmodel: unknown OLTP model "oltp-neural"; choose oltp-linear or oltp-throughput`},
		{"plan outside the roster", func(c *MixedConfig) {
			c.Faults = &fault.Plan{BackendCrashes: []fault.BackendCrash{{Backend: 2, At: 100}}}
		}, "fault: plan targets backend 2 of a 1-backend roster"},
		{"Query Scheduler fleet of 9", func(c *MixedConfig) { c.Backends = backend.DefaultSpecs(9) }, ""},
		{"Query Scheduler fleet of 10", func(c *MixedConfig) { c.Backends = backend.DefaultSpecs(10) },
			"router: a Query Scheduler fleet of 10 backends leaves no budget to follow demand (each keeps a 0.1 share)"},
		{"static fleet of 10", func(c *MixedConfig) { c.Mode, c.Backends = QPPriority, backend.DefaultSpecs(10) }, ""},
		{"empty schedule", func(c *MixedConfig) { c.Sched.Clients = nil }, "experiment: empty schedule"},
		{"zero period length", func(c *MixedConfig) { c.Sched.PeriodSeconds = 0 },
			"experiment: schedule period length 0 must be positive"},
		{"negative count", func(c *MixedConfig) { c.Sched.Clients[1][1] = -1 },
			"experiment: schedule period 2 has -1 clients for class 1"},
		{"clients of an unknown class", func(c *MixedConfig) { c.Sched.Clients[0][9] = 5 },
			"experiment: schedule period 1 has 5 clients for class 9, which the run does not have"},
		{"unknown class without clients", func(c *MixedConfig) { c.Sched.Clients[0][9] = 0 }, ""},
		{"clients of a class left out", func(c *MixedConfig) { c.Classes = workload.PaperClasses()[:2] },
			"experiment: schedule period 1 has 10 clients for class 3, which the run does not have"},
		{"duplicate class", func(c *MixedConfig) {
			c.Classes = append(workload.PaperClasses(), workload.PaperClasses()[0])
		}, "experiment: duplicate class ID 1"},
		{"OLAP class with a response-time goal", func(c *MixedConfig) {
			c.Classes = workload.PaperClasses()
			c.Classes[0].Goal = workload.Goal{Metric: workload.AvgResponseTime, Target: 5}
		}, "experiment: class 1 is OLAP but its goal metric is avg-response-time; OLAP goals are velocity"},
		{"OLTP class with a velocity goal", func(c *MixedConfig) {
			c.Classes = workload.PaperClasses()
			c.Classes[2].Goal = workload.Goal{Metric: workload.Velocity, Target: 0.5}
		}, "experiment: class 3 is OLTP but its goal metric is velocity; OLTP goals are avg-response-time"},
		{"unchecked custom solver", func(c *MixedConfig) {
			c.CheckpointEvery = 0
			c.QS = qs(func(q *core.Config) { q.Solver = uniformSolver{} })
			c.Retry.RefreshCost = refresh
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ckptTestConfig(t.TempDir(), 2)
			tc.edit(&cfg)
			err := cfg.Validate()
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("Validate() = %q, want %q", got, tc.want)
			}
		})
	}
}

// A checkpoint carries the run's own MixedConfig: gob round-trips a
// fleet roster, a fault plan, a retry policy and either built-in solver.
func TestSnapshotConfigRoundTrips(t *testing.T) {
	for _, sol := range []solver.Solver{solver.Greedy{MaxMoves: 7}, solver.Grid{}} {
		cfg := ckptTestConfig("", 0)
		specs := backend.DefaultSpecs(2)
		specs[1].Affinity = map[engine.ClassID]float64{2: 1.5}
		cfg.Backends = specs
		cfg.Faults.BackendCrashes = []fault.BackendCrash{{Backend: 2, At: 100}}
		cfg = cfg.Mitigated()
		cfg.QS.Solver = sol
		dir := t.TempDir()
		if err := checkpoint.Write(dir, 1, &runSnapshot{Config: cfg, Index: 1}); err != nil {
			t.Fatal(err)
		}
		got := new(runSnapshot)
		if err := checkpoint.Read(filepath.Join(dir, checkpoint.FileName(1)), got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Config, cfg) {
			t.Errorf("%T: config round-tripped as\n%+v\nwant\n%+v", sol, got.Config, cfg)
		}
	}
}

// -mitigate on a scenario that overrides the scheduler config keeps the
// override and still arms plan hold and slope fallback.
func TestMitigatedKeepsScenarioOverride(t *testing.T) {
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
	cfg := sc.Mitigated()
	if cfg.QS == nil || cfg.QS.SystemCostLimit != 12000 || cfg.QS.ControlInterval != 30 {
		t.Fatalf("mitigated QS = %+v, want the scenario's overrides kept", cfg.QS)
	}
	if !cfg.QS.HoldPlanOnDropout {
		t.Error("plan hold not armed")
	}
	if !cfg.QS.OLTP.FallbackToLastFit {
		t.Error("slope fallback not armed")
	}
	if cfg.Retry == nil || !reflect.DeepEqual(*cfg.Retry, DefaultRetryPolicy()) {
		t.Errorf("retry = %+v, want the default policy", cfg.Retry)
	}
	if sc.QS.HoldPlanOnDropout || sc.Retry != nil {
		t.Error("Mitigated modified the scenario it was called on")
	}
	// Outside Query Scheduler mode only the retry policy applies.
	if static := DefaultMixedConfig(NoControl).Mitigated(); static.QS != nil || static.Retry == nil {
		t.Errorf("no-control mitigation: QS %+v, retry %+v", static.QS, static.Retry)
	}
}
