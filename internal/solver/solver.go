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
package solver

import (
	"cmp"
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
	// GoalDir and GoalTarget optionally describe the class's SLO so the
	// introspecting solvers (Introspector) can judge predicted goal
	// attainment and unreachability. The search itself never reads them
	// — plan choice depends only on Utility and Predict.
	GoalDir    GoalDirection
	GoalTarget float64
}

// Problem is a complete solver input.
type Problem struct {
	Classes []ClassSpec
	// Total is the system cost limit every plan must sum to.
	Total float64
	// Step is the granularity of limit adjustments, in timerons.
	Step float64
}

// Plan maps class IDs to cost limits.
type Plan map[engine.ClassID]float64

// Clone returns a copy of the plan.
func (p Plan) Clone() Plan {
	out := make(Plan, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Sum returns the plan's total allocation. Accumulation runs over sorted
// class IDs: map order would perturb the floating-point rounding from
// process to process, and the total feeds planner decisions.
func (p Plan) Sum() float64 {
	var buf [8]engine.ClassID // plans rarely have more classes
	ids := buf[:0]
	for id := range p {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	total := 0.0
	for _, id := range ids {
		total += p[id]
	}
	return total
}

// Solver finds a utility-maximizing plan, starting the search from start
// (which may be nil for "no preference").
type Solver interface {
	Solve(p Problem, start Plan) Plan
}

// Utility evaluates a plan's total system utility under the problem's
// predictions.
func Utility(p Problem, plan Plan) float64 {
	total := 0.0
	for _, c := range p.Classes {
		total += c.Utility.Utility(c.Predict(plan[c.ID]))
	}
	return total
}

func validate(p Problem) {
	if len(p.Classes) == 0 {
		panic("solver: no classes")
	}
	if p.Total <= 0 || p.Step <= 0 {
		panic(fmt.Sprintf("solver: invalid total %v / step %v", p.Total, p.Step))
	}
	minSum := 0.0
	for _, c := range p.Classes {
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
// when start is nil/empty).
func normalize(p Problem, start Plan) Plan {
	plan := make(Plan, len(p.Classes))
	minSum := 0.0
	for _, c := range p.Classes {
		plan[c.ID] = c.Min
		minSum += c.Min
	}
	spare := p.Total - minSum
	weights := make([]float64, len(p.Classes))
	wTotal := 0.0
	for i, c := range p.Classes {
		w := 0.0
		if start != nil {
			w = math.Max(start[c.ID]-c.Min, 0)
		}
		weights[i] = w
		wTotal += w
	}
	for i, c := range p.Classes {
		if wTotal > 0 {
			plan[c.ID] += spare * weights[i] / wTotal
		} else {
			plan[c.ID] += spare / float64(len(p.Classes))
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

// cornerPlans returns, per class, the allocation giving that class all
// budget above the other classes' minimums.
func cornerPlans(p Problem) []Plan {
	var out []Plan
	for _, favored := range p.Classes {
		plan := make(Plan, len(p.Classes))
		rest := p.Total
		for _, c := range p.Classes {
			if c.ID != favored.ID {
				plan[c.ID] = c.Min
				rest -= c.Min
			}
		}
		plan[favored.ID] = rest
		out = append(out, plan)
	}
	return out
}

// solveFrom runs the exchange from one starting plan, returning the
// local optimum and how many improving transfers it took.
func (g Greedy) solveFrom(p Problem, plan Plan) (Plan, int) {
	classes := orderedClasses(p)

	maxMoves := g.MaxMoves
	if maxMoves <= 0 {
		maxMoves = int(p.Total/p.Step)*len(p.Classes) + 32
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
			avail := plan[donor.ID] - donor.Min
			if avail < p.Step-1e-9 {
				continue
			}
			for amount := p.Step; amount <= avail+1e-9; amount *= 2 {
				amt := math.Min(amount, avail)
				lossU := classUtil(donor, plan[donor.ID]) - classUtil(donor, plan[donor.ID]-amt)
				for j, rcpt := range classes {
					if i == j {
						continue
					}
					gainU := classUtil(rcpt, plan[rcpt.ID]+amt) - classUtil(rcpt, plan[rcpt.ID])
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
		plan[classes[bestFrom].ID] -= bestAmount
		plan[classes[bestTo].ID] += bestAmount
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
	validate(p)
	return gridSolve(p, nil)
}

// gridSolve dispatches on class count; s, when non-nil, accumulates the
// search summary without influencing the chosen plan.
func gridSolve(p Problem, s *Search) Plan {
	classes := orderedClasses(p)
	switch len(classes) {
	case 1:
		if s != nil {
			s.Candidates = 1
		}
		return Plan{classes[0].ID: p.Total}
	case 2:
		return gridSearch(p, classes, 2, s)
	case 3:
		return gridSearch(p, classes, 3, s)
	default:
		panic(fmt.Sprintf("solver: grid solver supports <= 3 classes, got %d", len(classes)))
	}
}

func gridSearch(p Problem, classes []ClassSpec, n int, s *Search) Plan {
	best := normalize(p, nil)
	bestU := Utility(p, best)
	runnerUp := math.Inf(-1)
	candidates := 1
	steps := int(p.Total / p.Step)

	try := func(alloc []float64) {
		plan := make(Plan, n)
		for i, c := range classes {
			if alloc[i] < c.Min-1e-9 {
				return
			}
			plan[c.ID] = alloc[i]
		}
		candidates++
		if u := Utility(p, plan); u > bestU+1e-12 {
			if bestU > runnerUp {
				runnerUp = bestU
			}
			bestU = u
			best = plan
		} else if u > runnerUp {
			runnerUp = u
		}
	}

	if n == 2 {
		for a := 0; a <= steps; a++ {
			x := float64(a) * p.Step
			try([]float64{x, p.Total - x})
		}
	} else {
		for a := 0; a <= steps; a++ {
			x := float64(a) * p.Step
			for b := 0; a+b <= steps; b++ {
				y := float64(b) * p.Step
				try([]float64{x, y, p.Total - x - y})
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

func orderedClasses(p Problem) []ClassSpec {
	classes := make([]ClassSpec, len(p.Classes))
	copy(classes, p.Classes)
	slices.SortFunc(classes, func(a, b ClassSpec) int { return cmp.Compare(a.ID, b.ID) })
	return classes
}
