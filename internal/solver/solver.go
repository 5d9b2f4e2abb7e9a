// Package solver implements the Performance Solver: given each class's
// utility function and a performance model predicting its metric at any
// candidate cost limit, find the scheduling plan — the vector of class
// cost limits summing to the system cost limit — that maximizes total
// system utility.
//
// Two implementations are provided: a greedy coordinate-exchange solver
// (the production path, linear in the number of moves) and an exhaustive
// grid solver used for small class counts and as a test oracle verifying
// the greedy solver's optimality gap.
//
// The solver knows nothing of SLO goals: plan choice depends only on each
// class's Utility and Predict. Judging the chosen plan against the goals
// is the caller's business.
package solver

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/utility"
)

// ClassSpec describes one service class to the solver.
type ClassSpec struct {
	ID engine.ClassID
	// Utility scores the class's predicted performance.
	Utility utility.Function
	// Predict maps a candidate cost limit to the class's predicted
	// goal-metric value (built from the perfmodel and the class's last
	// measured performance).
	Predict func(limit float64) float64
	// Min is the smallest allocation the class may receive.
	Min float64
}

// Problem is a complete solver input.
type Problem struct {
	// Classes lists the classes in strictly ascending ID order; every
	// Plan of the problem is indexed like it.
	Classes []ClassSpec
	// Total is the system cost limit every plan must sum to.
	Total float64
	// Step is the granularity of limit adjustments, in timerons.
	Step float64
}

// Plan is a vector of class cost limits: Plan[i] is Problem.Classes[i]'s.
type Plan []float64

// Clone returns a copy of the plan.
func (p Plan) Clone() Plan { return slices.Clone(p) }

// Solver finds a utility-maximizing plan, starting the search from start
// (which may be nil for "no preference"). Solve must not modify start.
type Solver interface {
	Solve(p Problem, start Plan) Plan
}

// Utility evaluates a plan's total system utility under the problem's
// predictions.
func Utility(p Problem, plan Plan) float64 {
	total := 0.0
	for i, c := range p.Classes {
		total += c.Utility.Utility(c.Predict(plan[i]))
	}
	return total
}

func validate(p Problem, start Plan) {
	if len(p.Classes) == 0 {
		panic("solver: no classes")
	}
	if p.Total <= 0 || p.Step <= 0 {
		panic(fmt.Sprintf("solver: invalid total %v / step %v", p.Total, p.Step))
	}
	if start != nil && len(start) != len(p.Classes) {
		panic(fmt.Sprintf("solver: start plan has %d limits for %d classes", len(start), len(p.Classes)))
	}
	minSum := 0.0
	for i, c := range p.Classes {
		if i > 0 && c.ID <= p.Classes[i-1].ID {
			panic(fmt.Sprintf("solver: class %d follows class %d; IDs must ascend", c.ID, p.Classes[i-1].ID))
		}
		if c.Utility == nil || c.Predict == nil {
			panic(fmt.Sprintf("solver: class %d missing utility or prediction", c.ID))
		}
		if c.Min < 0 {
			panic(fmt.Sprintf("solver: class %d negative minimum", c.ID))
		}
		minSum += c.Min
	}
	if minSum > p.Total {
		panic(fmt.Sprintf("solver: class minimums %v exceed total %v", minSum, p.Total))
	}
}

// normalize produces a feasible starting plan: every class at least at its
// minimum, the remainder distributed proportionally to start (or equally
// when start is nil).
func normalize(p Problem, start Plan) Plan {
	plan := make(Plan, len(p.Classes)) // holds each class's weight until the second pass
	minSum, wTotal := 0.0, 0.0
	for i, c := range p.Classes {
		minSum += c.Min
		if start != nil {
			plan[i] = math.Max(start[i]-c.Min, 0)
			wTotal += plan[i]
		}
	}
	spare := p.Total - minSum
	for i, c := range p.Classes {
		if wTotal > 0 {
			plan[i] = c.Min + spare*plan[i]/wTotal
		} else {
			plan[i] = c.Min + spare/float64(len(plan))
		}
	}
	return plan
}

// Greedy is the production solver: repeated best-improvement transfers
// from a donor class to a recipient class until no transfer improves
// total utility. Each round considers geometrically growing transfer
// sizes (Step, 2·Step, 4·Step, ...), which escapes the local optima of
// convex-marginal utility curves where a large reallocation pays off even
// though no single small step does. Deterministic: ties break on lower
// class index.
type Greedy struct {
	// MaxMoves bounds the search; 0 means a generous default derived
	// from Total/Step.
	MaxMoves int
}

// Solve implements Solver. The exchange runs from the caller's starting
// plan and from each single-class "corner" (one class holding everything
// above the others' minimums); the best result wins. Multi-start covers
// all-or-nothing utility landscapes — e.g. a response-time goal only
// reachable with nearly the whole budget — where no sequence of
// individually improving pairwise transfers crosses the valley.
func (g Greedy) Solve(p Problem, start Plan) Plan {
	plan, _ := g.SolveIntrospect(p, start)
	return plan
}

// corner returns the allocation giving class favored all budget above
// the other classes' minimums.
func corner(p Problem, favored int) Plan {
	plan := make(Plan, len(p.Classes))
	rest := p.Total
	for i, c := range p.Classes {
		if i != favored {
			plan[i] = c.Min
			rest -= c.Min
		}
	}
	plan[favored] = rest
	return plan
}

// solveFrom runs the exchange from one starting plan, in place, returning
// the local optimum and how many improving transfers it took.
func (g Greedy) solveFrom(p Problem, plan Plan) (Plan, int) {
	classes := p.Classes

	maxMoves := g.MaxMoves
	if maxMoves <= 0 {
		maxMoves = int(p.Total/p.Step)*len(classes) + 32
	}

	classUtil := func(c ClassSpec, limit float64) float64 {
		return c.Utility.Utility(c.Predict(limit))
	}

	const eps = 1e-12
	moves := 0
	for move := 0; move < maxMoves; move++ {
		bestGain := eps
		var bestFrom, bestTo = -1, -1
		bestAmount := 0.0
		for i, donor := range classes {
			avail := plan[i] - donor.Min
			if avail < p.Step-1e-9 {
				continue
			}
			for amount := p.Step; amount <= avail+1e-9; amount *= 2 {
				amt := math.Min(amount, avail)
				lossU := classUtil(donor, plan[i]) - classUtil(donor, plan[i]-amt)
				for j, rcpt := range classes {
					if i == j {
						continue
					}
					gainU := classUtil(rcpt, plan[j]+amt) - classUtil(rcpt, plan[j])
					if net := gainU - lossU; net > bestGain {
						bestGain = net
						bestFrom, bestTo = i, j
						bestAmount = amt
					}
				}
				if amount >= avail {
					break // amt was clamped to avail: the donor is drained
				}
			}
		}
		if bestFrom < 0 {
			break
		}
		plan[bestFrom] -= bestAmount
		plan[bestTo] += bestAmount
		moves++
	}
	return plan, moves
}

// Grid is the exhaustive solver: it enumerates all plans on the Step grid
// (feasible for two or three classes) and returns the best. Used as the
// greedy solver's oracle in tests and available as an ablation.
type Grid struct{}

// Solve implements Solver. It panics for more than three classes — the
// enumeration would be infeasible, and the paper's experiments use three.
func (Grid) Solve(p Problem, start Plan) Plan {
	validate(p, start)
	return gridSolve(p, nil)
}

// gridSolve dispatches on class count; s, when non-nil, accumulates the
// search summary without influencing the chosen plan.
func gridSolve(p Problem, s *Search) Plan {
	switch n := len(p.Classes); n {
	case 1:
		if s != nil {
			s.Candidates = 1
		}
		return Plan{p.Total}
	case 2, 3:
		return gridSearch(p, s)
	default:
		panic(fmt.Sprintf("solver: grid solver supports <= 3 classes, got %d", n))
	}
}

// gridSearch enumerates the two- or three-class grid into one reused
// candidate vector, copying it out only when it is a new best.
func gridSearch(p Problem, s *Search) Plan {
	best := normalize(p, nil)
	bestU := Utility(p, best)
	runnerUp := math.Inf(-1)
	candidates := 1
	steps := int(p.Total / p.Step)

	cand := make(Plan, len(p.Classes))
	try := func() {
		for i, c := range p.Classes {
			if cand[i] < c.Min-1e-9 {
				return
			}
		}
		candidates++
		if u := Utility(p, cand); u > bestU+1e-12 {
			if bestU > runnerUp {
				runnerUp = bestU
			}
			bestU = u
			copy(best, cand)
		} else if u > runnerUp {
			runnerUp = u
		}
	}

	if len(cand) == 2 {
		for a := 0; a <= steps; a++ {
			x := float64(a) * p.Step
			cand[0], cand[1] = x, p.Total-x
			try()
		}
	} else {
		for a := 0; a <= steps; a++ {
			x := float64(a) * p.Step
			for b := 0; a+b <= steps; b++ {
				y := float64(b) * p.Step
				cand[0], cand[1], cand[2] = x, y, p.Total-x-y
				try()
			}
		}
	}
	if s != nil {
		s.Candidates = candidates
		if candidates > 1 {
			s.RunnerUp, s.HasRunnerUp = runnerUp, true
		}
	}
	return best
}
