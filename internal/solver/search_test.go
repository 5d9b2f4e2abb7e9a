package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/utility"
)

// paperProblem is a three-class paper-shaped problem.
func paperProblem() Problem {
	return Problem{
		Total: 30000,
		Step:  500,
		Classes: []ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.4, 1), Min: 500, Predict: velPredict(1.0 / 15000)},
			{ID: 2, Utility: utility.NewVelocity(0.6, 2), Min: 500, Predict: velPredict(1.0 / 15000)},
			{ID: 3, Utility: utility.NewResponseTime(0.25, 3), Predict: rtPredict(0.5, 5e-5, 0.05)},
		},
	}
}

// plansEqual compares plans field-exactly: introspection must not perturb
// a single bit of the chosen allocation.
func plansEqual(a, b Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSolveIntrospectMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		p := paperProblem()
		start := Plan{10000, 10000, 10000}
		if iter > 0 {
			a := float64(rng.Intn(40)) * 500
			b := float64(rng.Intn(int((30000-a)/500)+1)) * 500
			start = Plan{a, b, 30000 - a - b}
		}
		for _, tc := range []struct {
			name string
			s    Solver
		}{{"greedy", Greedy{}}, {"grid", Grid{}}} {
			plan := tc.s.Solve(p, start)
			iplan, search := tc.s.(Introspector).SolveIntrospect(p, start)
			if !plansEqual(plan, iplan) {
				t.Fatalf("%s: introspected plan %v != plain plan %v", tc.name, iplan, plan)
			}
			if search.Candidates < 1 {
				t.Fatalf("%s: no candidates counted", tc.name)
			}
			if best := Utility(p, iplan); search.HasRunnerUp && search.RunnerUp > best {
				t.Fatalf("%s: runner-up %v beats best %v", tc.name, search.RunnerUp, best)
			}
		}
	}
}
