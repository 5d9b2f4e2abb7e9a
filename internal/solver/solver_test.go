package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/utility"
)

// linear velocity prediction: v = min(1, k*limit)
func velPredict(k float64) func(float64) float64 {
	return func(limit float64) float64 { return math.Min(1, k*limit) }
}

// rtPredict: t = base - s*limit, clamped at floor
func rtPredict(base, s, floor float64) func(float64) float64 {
	return func(limit float64) float64 { return math.Max(floor, base-s*limit) }
}

// sum totals a plan in class order.
func sum(p Plan) float64 {
	total := 0.0
	for _, v := range p {
		total += v
	}
	return total
}

func twoClassProblem() Problem {
	return Problem{
		Total: 10000,
		Step:  500,
		Classes: []ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.4, 1), Predict: velPredict(1.0 / 10000)},
			{ID: 2, Utility: utility.NewVelocity(0.6, 2), Predict: velPredict(1.0 / 10000)},
		},
	}
}

func TestPlanHelpers(t *testing.T) {
	p := Plan{100, 200}
	c := p.Clone()
	c[0] = 999
	if p[0] != 100 || c[1] != 200 || len(c) != 2 {
		t.Fatalf("Clone is not a copy: %v -> %v", p, c)
	}
}

func TestGreedyConservesTotal(t *testing.T) {
	p := twoClassProblem()
	plan := Greedy{}.Solve(p, nil)
	if math.Abs(sum(plan)-p.Total) > 1e-6 {
		t.Fatalf("plan sum %v != total %v", sum(plan), p.Total)
	}
}

func TestGreedyPrefersImportantViolatedClass(t *testing.T) {
	p := twoClassProblem()
	plan := Greedy{}.Solve(p, nil)
	// Class 2 has a higher goal and higher importance under the same
	// prediction curve: it must get more.
	if plan[1] <= plan[0] {
		t.Fatalf("plan %v should favor class 2", plan)
	}
}

func TestGreedyRespectsMinimums(t *testing.T) {
	p := twoClassProblem()
	p.Classes[0].Min = 3000
	plan := Greedy{}.Solve(p, nil)
	if plan[0] < 3000-1e-9 {
		t.Fatalf("class 1 below minimum: %v", plan[0])
	}
	if math.Abs(sum(plan)-p.Total) > 1e-6 {
		t.Fatal("total violated with minimums")
	}
}

func TestGreedyMatchesGridOnRandomProblems(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p := Problem{
			Total: 30000,
			Step:  1500,
			Classes: []ClassSpec{
				{
					ID:      1,
					Utility: utility.NewVelocity(0.2+0.6*rnd.Float64(), 1),
					Predict: velPredict((0.5 + rnd.Float64()) / 30000),
				},
				{
					ID:      2,
					Utility: utility.NewVelocity(0.2+0.6*rnd.Float64(), 2),
					Predict: velPredict((0.5 + rnd.Float64()) / 30000),
				},
				{
					ID:      3,
					Utility: utility.NewResponseTime(0.1+0.4*rnd.Float64(), 3),
					Predict: rtPredict(0.2+0.4*rnd.Float64(), rnd.Float64()*2e-5, 0.05),
				},
			},
		}
		greedy := Greedy{}.Solve(p, nil)
		grid := Grid{}.Solve(p, nil)
		ug, ugrid := Utility(p, greedy), Utility(p, grid)
		// Greedy must come within a small gap of the exhaustive optimum.
		if ug < ugrid-0.05*math.Abs(ugrid)-1e-6 {
			t.Fatalf("trial %d: greedy %v far below grid %v (plans %v vs %v)",
				trial, ug, ugrid, greedy, grid)
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	p := twoClassProblem()
	a := Greedy{}.Solve(p, nil)
	b := Greedy{}.Solve(p, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy solver not deterministic")
		}
	}
}

func TestGreedyUsesStartingPlan(t *testing.T) {
	// With a flat utility landscape (everything saturated at 1), the
	// solver has no reason to move and should keep the start shape.
	p := Problem{
		Total: 10000,
		Step:  500,
		Classes: []ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.4, 1), Predict: func(float64) float64 { return 1 }},
			{ID: 2, Utility: utility.NewVelocity(0.6, 1), Predict: func(float64) float64 { return 1 }},
		},
	}
	start := Plan{8000, 2000}
	plan := Greedy{}.Solve(p, start)
	if math.Abs(plan[0]-8000) > 1e-6 || math.Abs(plan[1]-2000) > 1e-6 {
		t.Fatalf("flat landscape moved away from start: %v", plan)
	}
}

func TestGridSingleClass(t *testing.T) {
	p := Problem{
		Total: 5000,
		Step:  500,
		Classes: []ClassSpec{
			{ID: 7, Utility: utility.NewVelocity(0.5, 1), Predict: velPredict(1.0 / 5000)},
		},
	}
	plan := Grid{}.Solve(p, nil)
	if len(plan) != 1 || plan[0] != 5000 {
		t.Fatalf("single class must get everything: %v", plan)
	}
}

func TestGridRespectsMinimums(t *testing.T) {
	p := twoClassProblem()
	p.Classes[1].Min = 7000
	plan := Grid{}.Solve(p, nil)
	if plan[1] < 7000 {
		t.Fatalf("grid violated minimum: %v", plan)
	}
}

func TestGridTooManyClassesPanics(t *testing.T) {
	p := twoClassProblem()
	for i := 0; i < 2; i++ {
		p.Classes = append(p.Classes, ClassSpec{
			ID: engine.ClassID(10 + i), Utility: utility.NewVelocity(0.5, 1), Predict: velPredict(1),
		})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("4-class grid did not panic")
		}
	}()
	Grid{}.Solve(p, nil)
}

func TestValidateRejectsBadProblems(t *testing.T) {
	good := twoClassProblem()
	cases := []func(p *Problem){
		func(p *Problem) { p.Classes = nil },
		func(p *Problem) { p.Total = 0 },
		func(p *Problem) { p.Step = 0 },
		func(p *Problem) { p.Classes[0].Utility = nil },
		func(p *Problem) { p.Classes[0].Predict = nil },
		func(p *Problem) { p.Classes[0].Min = -1 },
		func(p *Problem) { p.Classes[0].Min = 6000; p.Classes[1].Min = 6000 },
		func(p *Problem) { p.Classes[1].ID = 1 },
		func(p *Problem) { p.Classes[0], p.Classes[1] = p.Classes[1], p.Classes[0] },
	}
	for i, mutate := range cases {
		p := good
		p.Classes = append([]ClassSpec{}, good.Classes...)
		mutate(&p)
		for _, s := range []Solver{Greedy{}, Grid{}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("case %d did not panic under %T", i, s)
					}
				}()
				s.Solve(p, nil)
			}()
		}
	}
	// A start plan must be nil or carry one limit per class.
	for _, start := range []Plan{{}, {10000}, {5000, 2500, 2500}} {
		for _, s := range []Solver{Greedy{}, Grid{}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%d-limit start under %T did not panic", len(start), s)
					}
				}()
				s.Solve(good, start)
			}()
		}
	}
}

func TestUtilityEvaluation(t *testing.T) {
	p := twoClassProblem()
	plan := Plan{4000, 6000}
	got := Utility(p, plan)
	want := p.Classes[0].Utility.Utility(0.4) + p.Classes[1].Utility.Utility(0.6)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Utility = %v, want %v", got, want)
	}
}

func TestNormalizeProportionalSpare(t *testing.T) {
	p := twoClassProblem()
	plan := normalize(p, Plan{7500, 2500})
	if math.Abs(plan[0]-7500) > 1e-9 || math.Abs(plan[1]-2500) > 1e-9 {
		t.Fatalf("normalize reshaped a feasible start: %v", plan)
	}
	// Nil start splits equally.
	eq := normalize(p, nil)
	if math.Abs(eq[0]-5000) > 1e-9 || math.Abs(eq[1]-5000) > 1e-9 {
		t.Fatalf("equal split = %v", eq)
	}
}

func TestNormalizeLiftsToMinimums(t *testing.T) {
	p := twoClassProblem()
	p.Classes[0].Min = 4000
	plan := normalize(p, Plan{0, 10000})
	if plan[0] < 4000-1e-9 {
		t.Fatalf("normalize ignored minimum: %v", plan)
	}
	if math.Abs(sum(plan)-p.Total) > 1e-6 {
		t.Fatalf("normalize broke total: %v", plan)
	}
}
