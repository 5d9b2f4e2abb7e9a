// Solver search introspection: the decision audit log wants to know not
// just the chosen plan but how hard it was to find — candidate plans
// considered, improving moves taken, how close the runner-up came.
// Introspection is strictly observational: the introspecting entry points
// choose the exact same plan Solve would.
package solver

import "math"

// Search summarizes one solver invocation for the decision audit log.
type Search struct {
	// Iterations counts improving transfers taken across all search
	// starts (greedy); zero for the exhaustive grid solver.
	Iterations int
	// Candidates counts complete plans evaluated: the normalized start
	// plus one corner per class for the greedy solver, feasible grid
	// points for the grid solver.
	Candidates int
	// RunnerUp is the best utility among the candidates that lost;
	// HasRunnerUp is false when there was only one candidate.
	RunnerUp    float64
	HasRunnerUp bool
}

// Introspector is implemented by solvers that report a Search summary
// alongside the plan. SolveIntrospect must choose the identical plan
// Solve would — introspection may never perturb control decisions.
type Introspector interface {
	SolveIntrospect(p Problem, start Plan) (Plan, Search)
}

// SolveIntrospect implements Introspector for the greedy solver. The
// search is the exact multi-start exchange Solve runs; only counters and
// the losing candidates' utilities are recorded on the side.
func (g Greedy) SolveIntrospect(p Problem, start Plan) (Plan, Search) {
	validate(p, start)
	var s Search
	best, moves := g.solveFrom(p, normalize(p, start))
	s.Iterations = moves
	s.Candidates = 1
	bestU := Utility(p, best)
	runnerUp := math.Inf(-1)
	for favored := range p.Classes {
		plan, moves := g.solveFrom(p, corner(p, favored))
		s.Iterations += moves
		s.Candidates++
		if u := Utility(p, plan); u > bestU+1e-12 {
			if bestU > runnerUp {
				runnerUp = bestU
			}
			best, bestU = plan, u
		} else if u > runnerUp {
			runnerUp = u
		}
	}
	if s.Candidates > 1 {
		s.RunnerUp, s.HasRunnerUp = runnerUp, true
	}
	return best, s
}

// SolveIntrospect implements Introspector for the grid solver.
func (Grid) SolveIntrospect(p Problem, start Plan) (Plan, Search) {
	validate(p, start)
	var s Search
	plan := gridSolve(p, &s)
	return plan, s
}
