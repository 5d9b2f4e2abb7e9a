package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/solver"
	"repro/internal/utility"
	"repro/internal/workload"
)

// velPredict is a linear velocity forecast v = min(1, k*limit).
func velPredict(k float64) func(float64) float64 {
	return func(limit float64) float64 { return math.Min(1, k*limit) }
}

// rtPredict is a response-time forecast t = base - s*limit, floored.
func rtPredict(base, s, floor float64) func(float64) float64 {
	return func(limit float64) float64 { return math.Max(floor, base-s*limit) }
}

// goalProblem is the paper-shaped problem over testClasses' goals.
func goalProblem() solver.Problem {
	return solver.Problem{
		Total: 30000,
		Step:  500,
		Classes: []solver.ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.4, 1), Min: 500, Predict: velPredict(1.0 / 15000)},
			{ID: 2, Utility: utility.NewVelocity(0.6, 2), Min: 500, Predict: velPredict(1.0 / 15000)},
			{ID: 3, Utility: utility.NewResponseTime(0.25, 3), Predict: rtPredict(0.5, 5e-5, 0.05)},
		},
	}
}

// judged solves p with s and judges the plan against classes' goals, as
// a control tick does.
func judged(classes []*workload.Class, p solver.Problem, s solver.Solver) PlanRecord {
	qs := &QueryScheduler{byID: classes}
	rec := PlanRecord{Classes: make([]ClassPlan, len(classes))}
	for i, c := range classes {
		rec.Classes[i].ID = c.ID
	}
	qs.judgePlan(p, s.Solve(p, nil), &rec)
	return rec
}

func TestSearchFeasibleProblem(t *testing.T) {
	// Generous budget: every goal is reachable and the optimum meets all.
	rec := judged(testClasses(), goalProblem(), solver.Greedy{})
	if rec.Infeasible {
		t.Fatalf("feasible problem flagged infeasible: %+v", rec.Classes)
	}
	if rec.Binding != 0 {
		t.Fatalf("feasible problem has binding class %d", rec.Binding)
	}
	for _, row := range rec.Classes {
		if !row.Reachable || !row.GoalMet || row.Shortfall != 0 {
			t.Fatalf("class %d goal should be met and reachable: %+v", row.ID, row)
		}
	}
}

func TestSearchUnreachableGoalBinds(t *testing.T) {
	// Class 3's response-time goal cannot be met at any allocation: the
	// prediction floor sits above the target. It must be flagged binding
	// with Reachable=false, and the miss must carry a positive shortfall.
	p := goalProblem()
	p.Classes[2].Predict = rtPredict(1.5, 1e-5, 0.8)
	for _, s := range []solver.Solver{solver.Greedy{}, solver.Grid{}} {
		rec := judged(testClasses(), p, s)
		if !rec.Infeasible {
			t.Fatalf("%T: unreachable goal not flagged infeasible", s)
		}
		if rec.Binding != 3 {
			t.Fatalf("%T: binding class %d, want 3", s, rec.Binding)
		}
		row, ok := rec.Class(3)
		if !ok || row.Reachable || row.GoalMet {
			t.Fatalf("%T: class 3 analysis %+v", s, row)
		}
		if row.Shortfall <= 0 {
			t.Fatalf("%T: class 3 shortfall %v", s, row.Shortfall)
		}
		if row.Ceiling > 1.5 || row.Ceiling < 0.8 {
			t.Fatalf("%T: class 3 ceiling %v outside model range", s, row.Ceiling)
		}
	}
}

func TestSearchConflictingGoalsBindByShortfall(t *testing.T) {
	// Two velocity classes whose goals are individually reachable (each
	// corner prediction hits 1) but jointly impossible: meeting both
	// needs 0.9*20000 + 0.9*20000 > 20000 total. The binding class is the
	// one the optimum leaves furthest from its goal, relatively.
	classes := []*workload.Class{
		{ID: 1, Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.9}, Importance: 1},
		{ID: 2, Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.9}, Importance: 2},
	}
	p := solver.Problem{
		Total: 20000,
		Step:  500,
		Classes: []solver.ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.9, 1), Predict: velPredict(1.0 / 20000)},
			{ID: 2, Utility: utility.NewVelocity(0.9, 2), Predict: velPredict(1.0 / 20000)},
		},
	}
	rec := judged(classes, p, solver.Greedy{})
	if !rec.Infeasible {
		t.Fatalf("conflicting goals not flagged infeasible: %+v", rec.Classes)
	}
	row, _ := rec.Class(rec.Binding)
	if row.GoalMet {
		t.Fatalf("binding class %d met its goal: %+v", rec.Binding, row)
	}
	if !row.Reachable {
		t.Fatalf("binding class %d should be individually reachable: %+v", rec.Binding, row)
	}
	for _, other := range rec.Classes {
		if other.GoalMet || other.ID == rec.Binding {
			continue
		}
		if other.Shortfall > row.Shortfall {
			t.Fatalf("class %d shortfall %v exceeds binding class %d's %v",
				other.ID, other.Shortfall, rec.Binding, row.Shortfall)
		}
	}
}

// The binding class ranks an unreachable goal first, then the larger
// shortfall, then the lower ID; the shortfall is the miss over the target
// on the goal's wrong side, for either goal metric.
func TestJudgePlanBindingOrder(t *testing.T) {
	constant := func(v float64) func(float64) float64 {
		return func(float64) float64 { return v }
	}
	ramp := func(at, below, above float64) func(float64) float64 {
		return func(limit float64) float64 {
			if limit >= at {
				return above
			}
			return below
		}
	}
	classes := testClasses() // velocity 0.4, velocity 0.6, RT 0.25
	spec := func(id engine.ClassID, predict func(float64) float64) solver.ClassSpec {
		return solver.ClassSpec{ID: id, Predict: predict, Min: 1000}
	}
	cases := []struct {
		name    string
		predict [3]func(float64) float64
		binding engine.ClassID
	}{
		{"all met", [3]func(float64) float64{constant(0.5), constant(0.7), constant(0.2)}, 0},
		{"larger shortfall binds", [3]func(float64) float64{
			constant(0.3), constant(0.3), constant(0.3)}, 2}, // 0.25, 0.5, 0.2
		{"equal shortfalls keep the lower ID", [3]func(float64) float64{
			constant(0.2), constant(0.3), constant(0.2)}, 1}, // 0.5, 0.5, met
		{"unreachable beats a larger shortfall", [3]func(float64) float64{
			ramp(8000, 0.1, 0.5), constant(0.7), constant(0.3)}, 3}, // 0.75 reachable, met, 0.2 unreachable
	}
	for _, tc := range cases {
		p := solver.Problem{Total: 10000, Step: 500}
		for i, c := range classes {
			p.Classes = append(p.Classes, spec(c.ID, tc.predict[i]))
		}
		qs := &QueryScheduler{byID: classes}
		rec := PlanRecord{Classes: []ClassPlan{{ID: 1}, {ID: 2}, {ID: 3}}}
		qs.judgePlan(p, solver.Plan{5000, 3000, 2000}, &rec)
		if rec.Infeasible != (tc.binding != 0) || rec.Binding != tc.binding {
			t.Fatalf("%s: infeasible %v binding %d, want binding %d (rows %+v)",
				tc.name, rec.Infeasible, rec.Binding, tc.binding, rec.Classes)
		}
		for i, row := range rec.Classes {
			goal := classes[i].Goal
			want := 0.0
			if !goal.Met(row.Predicted) {
				if goal.Metric == workload.Velocity {
					want = (goal.Target - row.Predicted) / goal.Target
				} else {
					want = (row.Predicted - goal.Target) / goal.Target
				}
			}
			if math.Float64bits(row.Shortfall) != math.Float64bits(want) {
				t.Fatalf("%s: class %d shortfall %v, want %v", tc.name, row.ID, row.Shortfall, want)
			}
			// The corner is everything above the other classes' minimums.
			if c := p.Classes[i].Predict(10000 - 2000); row.Ceiling != c {
				t.Fatalf("%s: class %d ceiling %v, want %v", tc.name, row.ID, row.Ceiling, c)
			}
		}
	}
}

// solveOnly hides the wrapped solver's Introspector, as a timing or
// tracing wrapper does.
type solveOnly struct{ inner solver.Solver }

func (s solveOnly) Solve(p solver.Problem, start solver.Plan) solver.Plan {
	return s.inner.Solve(p, start)
}

// infeasibleRun drives the E13 roster (experiment.InfeasibleClasses:
// goals no budget meets at once) under heavy OLAP and OLTP load.
func infeasibleRun(t *testing.T, s solver.Solver) (*QueryScheduler, []PlanRecord) {
	classes := []*workload.Class{
		{ID: 1, Name: "Class 1", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.85}, Importance: 1},
		{ID: 2, Name: "Class 2", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.90}, Importance: 2},
		{ID: 3, Name: "Class 3", Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.05}, Importance: 3},
	}
	r := newRigWithClasses(t, func(cfg *Config) { cfg.Solver = s }, classes)
	r.qs.Start()
	for i := engine.ClientID(0); i < 6; i++ {
		driveOLAPLoop(r, 100+i, 1, 1500, 30)
		driveOLAPLoop(r, 200+i, 2, 1500, 30)
	}
	submitOLTPLoop(r, 1)
	submitOLTPLoop(r, 2)
	r.clock.RunUntil(30 * 60)
	return r.qs, r.qs.History()
}

// The plan's goal verdict is the scheduler's, not the solver's: a solver
// that only implements Solve yields the same rows, verdict and
// LastVerdict as the introspecting Greedy it wraps. Only the search
// counters may differ.
func TestWrappedSolverKeepsVerdict(t *testing.T) {
	qsA, a := infeasibleRun(t, solver.Greedy{})
	qsB, b := infeasibleRun(t, solveOnly{solver.Greedy{}})
	if len(a) != len(b) || len(a) < 20 {
		t.Fatalf("%d and %d ticks", len(a), len(b))
	}
	infeasible := 0
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Infeasible {
			infeasible++
		}
		if ra.Infeasible != rb.Infeasible || ra.Binding != rb.Binding || ra.Held != rb.Held {
			t.Fatalf("tick %d: verdict %v/%d vs wrapped %v/%d", i, ra.Infeasible, ra.Binding, rb.Infeasible, rb.Binding)
		}
		for j := range ra.Classes {
			x, y := ra.Classes[j], rb.Classes[j]
			same := func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }
			if x.ID != y.ID || !same(x.Limit, y.Limit) || !same(x.Predicted, y.Predicted) ||
				!same(x.Ceiling, y.Ceiling) || x.GoalMet != y.GoalMet || x.Reachable != y.Reachable ||
				!same(x.Shortfall, y.Shortfall) {
				t.Fatalf("tick %d class %d: row %+v vs wrapped %+v", i, x.ID, x, y)
			}
		}
		if rb.Search != (solver.Search{}) {
			t.Fatalf("tick %d: wrapped solver reported search %+v", i, rb.Search)
		}
	}
	if infeasible == 0 {
		t.Fatal("the E13 roster never planned an infeasible tick; the test exercises nothing")
	}
	va, okA := qsA.LastVerdict()
	vb, okB := qsB.LastVerdict()
	if !okA || !okB || va != vb {
		t.Fatalf("LastVerdict %+v/%v vs wrapped %+v/%v", va, okA, vb, okB)
	}
}
