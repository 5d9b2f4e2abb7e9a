package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// shortSchedule compresses the paper's intensity pattern into six short
// periods so integration tests run in milliseconds of wall time.
func shortSchedule() workload.Schedule {
	s := workload.Schedule{PeriodSeconds: 600}
	counts := [][3]int{
		{2, 3, 15}, {4, 2, 20}, {3, 4, 25},
		{2, 3, 15}, {3, 4, 20}, {2, 6, 25},
	}
	for _, c := range counts {
		s.Clients = append(s.Clients, map[engine.ClassID]int{1: c[0], 2: c[1], 3: c[2]})
	}
	return s
}

func TestNewRigShape(t *testing.T) {
	rig := NewRig(1, shortSchedule())
	if len(rig.Classes) != 3 {
		t.Fatalf("%d classes", len(rig.Classes))
	}
	if got := rig.OLAPClassIDs(); len(got) != 2 {
		t.Fatalf("OLAP classes = %v", got)
	}
	if rig.OLTPClass() == nil || rig.OLTPClass().ID != 3 {
		t.Fatal("OLTP class missing")
	}
	// Pool must be provisioned for the schedule's maxima.
	for cls, want := range rig.Sched.MaxClients() {
		rig.Pool.SetActive(cls, want)
		if got := rig.Pool.ActiveCount(cls); got != want {
			t.Fatalf("class %d has %d clients, want %d", cls, got, want)
		}
	}
}

func TestSampleOLAPCosts(t *testing.T) {
	rig := NewRig(1, shortSchedule())
	costs := rig.SampleOLAPCosts(500, 7)
	if len(costs) != 500 {
		t.Fatalf("%d costs", len(costs))
	}
	var min, max float64 = math.Inf(1), 0
	for _, c := range costs {
		if c <= 0 {
			t.Fatal("non-positive cost sample")
		}
		min = math.Min(min, c)
		max = math.Max(max, c)
	}
	if max/min < 10 {
		t.Fatalf("sample spread %v too tight", max/min)
	}
}

func TestRunMixedAllModes(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{NoControl, QPPriority, QPNoPriority, QueryScheduler} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			res := RunMixed(MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1})
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.Periods != 6 {
				t.Fatalf("periods = %d", res.Periods)
			}
			// Every class must complete work in most periods.
			for i := range res.Classes {
				measured := 0
				for p := 0; p < res.Periods; p++ {
					if res.Measurable[i][p] {
						measured++
					}
				}
				if measured < res.Periods/2 {
					t.Fatalf("class %d measurable in only %d periods", i, measured)
				}
			}
			// OLTP responses must be sane (sub-second under all modes).
			for p := 0; p < res.Periods; p++ {
				if res.Measurable[2][p] && (res.Metric[2][p] <= 0 || res.Metric[2][p] > 2) {
					t.Fatalf("OLTP RT in period %d = %v", p, res.Metric[2][p])
				}
			}
			if mode == QueryScheduler {
				if res.CostLimits == nil || len(res.PlanHistory) == 0 {
					t.Fatal("QS run missing plan history")
				}
				for _, rec := range res.PlanHistory {
					sum := 0.0
					for _, row := range rec.Classes {
						sum += row.Limit
					}
					if math.Abs(sum-SystemCostLimit) > 1e-6 {
						t.Fatalf("plan sum %v", sum)
					}
				}
			} else if res.CostLimits != nil {
				t.Fatal("non-QS run has cost limits")
			}
		})
	}
}

func TestQPPriorityDifferentiatesOLAPClasses(t *testing.T) {
	res := RunMixed(MixedConfig{Mode: QPPriority, Sched: shortSchedule(), Seed: 1})
	better := 0
	comparable := 0
	for p := 0; p < res.Periods; p++ {
		if !res.Measurable[0][p] || !res.Measurable[1][p] {
			continue
		}
		comparable++
		if res.Metric[1][p] >= res.Metric[0][p] {
			better++
		}
	}
	if comparable == 0 {
		t.Fatal("no comparable periods")
	}
	if float64(better)/float64(comparable) < 0.7 {
		t.Fatalf("class 2 beat class 1 in only %d/%d periods under priority control",
			better, comparable)
	}
}

func TestQSBeatsStaticControlOnOLTPGoal(t *testing.T) {
	qp := RunMixed(MixedConfig{Mode: QPPriority, Sched: shortSchedule(), Seed: 1})
	qs := RunMixed(MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 1})
	if qs.Satisfaction[2] < qp.Satisfaction[2] {
		t.Fatalf("QS OLTP satisfaction %v below QP %v", qs.Satisfaction[2], qp.Satisfaction[2])
	}
	// And the heavy-period response time must improve.
	heavy := 5 // period 6: (2, 6, 25)
	if qs.Measurable[2][heavy] && qp.Measurable[2][heavy] {
		if qs.Metric[2][heavy] > qp.Metric[2][heavy]*1.1 {
			t.Fatalf("QS heavy-period RT %v worse than QP %v",
				qs.Metric[2][heavy], qp.Metric[2][heavy])
		}
	}
}

func TestRunFig2Monotone(t *testing.T) {
	cfg := Fig2Config{
		Pairs:  [][2]int{{20, 4}},
		Limits: []float64{4000, 16000, 28000},
		Window: 900,
		Seed:   1,
	}
	curves := RunFig2(cfg)
	if len(curves) != 1 {
		t.Fatalf("%d curves", len(curves))
	}
	c := curves[0]
	if len(c.MeanRT) != 3 {
		t.Fatalf("%d points", len(c.MeanRT))
	}
	// OLTP response time must not decrease as the OLAP limit grows.
	if c.MeanRT[2] < c.MeanRT[0] {
		t.Fatalf("RT fell with OLAP limit: %v", c.MeanRT)
	}
	for _, rt := range c.MeanRT {
		if rt <= 0 || rt > 2 {
			t.Fatalf("implausible RT %v", rt)
		}
	}
}

func TestRunSaturationShape(t *testing.T) {
	cfg := SaturationConfig{
		Limits:      []float64{15000, 30000, 60000},
		OLAPClients: 10,
		Window:      1800,
		Seed:        1,
	}
	points := RunSaturation(cfg)
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.QueriesPerHour <= 0 {
			t.Fatalf("no throughput at limit %v", p.Limit)
		}
	}
	// Throughput must saturate: the step from 30k to 60k should gain far
	// less than the step from 15k to 30k gained (if anything).
	gainLow := points[1].QueriesPerHour - points[0].QueriesPerHour
	gainHigh := points[2].QueriesPerHour - points[1].QueriesPerHour
	if gainHigh > gainLow && gainHigh > 0.2*points[1].QueriesPerHour {
		t.Fatalf("no saturation: %v", points)
	}
}

func TestRunInterceptionOverhead(t *testing.T) {
	res := RunInterceptionOverhead(10, 0.05, 1, 0)
	if res.DirectMeanRT <= res.UnmanagedMeanRT {
		t.Fatalf("interception with overhead must hurt: %+v", res)
	}
	if res.DirectMeanRT < 1.5*res.UnmanagedMeanRT {
		t.Fatalf("overhead effect too small to motivate the paper's design: %+v", res)
	}
}

func TestConstantScheduleShape(t *testing.T) {
	s := ConstantSchedule(100, 100, map[engine.ClassID]int{1: 2})
	if s.Periods() != 2 || s.Duration() != 200 {
		t.Fatalf("schedule = %+v", s)
	}
	// Mutating the input map must not affect the schedule.
	in := map[engine.ClassID]int{1: 2}
	s = ConstantSchedule(50, 50, in)
	in[1] = 99
	if s.Clients[0][1] != 2 {
		t.Fatal("schedule aliases caller's map")
	}
}

func TestConstantScheduleMismatchSplits(t *testing.T) {
	// Unequal windows used to panic; they now split into equal-length
	// periods at the windows' greatest common divisor.
	s := ConstantSchedule(10, 20, map[engine.ClassID]int{1: 1})
	if s.PeriodSeconds != 10 || s.Periods() != 3 {
		t.Fatalf("ConstantSchedule(10, 20) = %d periods of %vs, want 3 of 10s",
			s.Periods(), s.PeriodSeconds)
	}
}

func TestReportRendering(t *testing.T) {
	res := RunMixed(MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 1})
	var b strings.Builder
	WriteMixed(&b, res)
	out := b.String()
	for _, want := range []string{"query-scheduler", "Class 1", "velocity >= 0.40", "met"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteMixed output missing %q", want)
		}
	}
	b.Reset()
	WriteCostLimitTable(&b, res)
	if !strings.Contains(b.String(), "Figure 7") || !strings.Contains(b.String(), "total") {
		t.Fatal("WriteCostLimitTable output malformed")
	}
	// Non-QS result prints a notice instead.
	b.Reset()
	WriteCostLimitTable(&b, &MixedResult{Mode: NoControl, Periods: 0})
	if !strings.Contains(b.String(), "does not adapt") {
		t.Fatal("missing non-QS notice")
	}
	b.Reset()
	WriteSchedule(&b, workload.PaperSchedule(), workload.PaperClasses())
	if !strings.Contains(b.String(), "Figure 3") {
		t.Fatal("WriteSchedule malformed")
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"a", "b"}, []float64{1, 2}, []float64{3, 4})
	want := "a,b\n1,3\n2,4\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
	if CSV([]string{"x"}) != "x\n" {
		t.Fatal("empty CSV wrong")
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		NoControl: "no-control", QPPriority: "qp-priority",
		QPNoPriority: "qp-no-priority", QueryScheduler: "query-scheduler",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := RunMixed(MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 5})
	b := RunMixed(MixedConfig{Mode: QueryScheduler, Sched: shortSchedule(), Seed: 5})
	for i := range a.Metric {
		for p := range a.Metric[i] {
			if a.Metric[i][p] != b.Metric[i][p] {
				t.Fatalf("run not reproducible at class %d period %d", i, p)
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := RunMixed(MixedConfig{Mode: NoControl, Sched: shortSchedule(), Seed: 1})
	b := RunMixed(MixedConfig{Mode: NoControl, Sched: shortSchedule(), Seed: 2})
	same := true
	for i := range a.Metric {
		for p := range a.Metric[i] {
			if a.Metric[i][p] != b.Metric[i][p] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}
