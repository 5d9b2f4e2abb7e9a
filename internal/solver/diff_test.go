package solver

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/utility"
)

// The map-keyed solver the vector solver replaced, kept verbatim as a
// test-only reference: plans were map[ClassID]float64, every search
// re-sorted the classes by ID, and the grid built one map per candidate.
// TestVectorSolverMatchesMapReference pins the vector solver to it bit
// for bit.

type refPlan map[engine.ClassID]float64

func refUtility(p Problem, plan refPlan) float64 {
	total := 0.0
	for _, c := range p.Classes {
		total += c.Utility.Utility(c.Predict(plan[c.ID]))
	}
	return total
}

func refNormalize(p Problem, start refPlan) refPlan {
	plan := make(refPlan, len(p.Classes))
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

func refCornerPlans(p Problem) []refPlan {
	var out []refPlan
	for _, favored := range p.Classes {
		plan := make(refPlan, len(p.Classes))
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

func orderedClasses(p Problem) []ClassSpec {
	classes := make([]ClassSpec, len(p.Classes))
	copy(classes, p.Classes)
	slices.SortFunc(classes, func(a, b ClassSpec) int { return cmp.Compare(a.ID, b.ID) })
	return classes
}

func refSolveFrom(maxMoves int, p Problem, plan refPlan) (refPlan, int) {
	classes := orderedClasses(p)
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
					break
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

func refGreedy(maxMoves int, p Problem, start refPlan) (refPlan, Search) {
	var s Search
	best, moves := refSolveFrom(maxMoves, p, refNormalize(p, start))
	s.Iterations = moves
	s.Candidates = 1
	bestU := refUtility(p, best)
	runnerUp := math.Inf(-1)
	for _, corner := range refCornerPlans(p) {
		plan, moves := refSolveFrom(maxMoves, p, corner)
		s.Iterations += moves
		s.Candidates++
		if u := refUtility(p, plan); u > bestU+1e-12 {
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

func refGrid(p Problem) (refPlan, Search) {
	var s Search
	classes := orderedClasses(p)
	if len(classes) == 1 {
		s.Candidates = 1
		return refPlan{classes[0].ID: p.Total}, s
	}
	best := refNormalize(p, nil)
	bestU := refUtility(p, best)
	runnerUp := math.Inf(-1)
	candidates := 1
	steps := int(p.Total / p.Step)
	try := func(alloc []float64) {
		plan := make(refPlan, len(classes))
		for i, c := range classes {
			if alloc[i] < c.Min-1e-9 {
				return
			}
			plan[c.ID] = alloc[i]
		}
		candidates++
		if u := refUtility(p, plan); u > bestU+1e-12 {
			if bestU > runnerUp {
				runnerUp = bestU
			}
			bestU = u
			best = plan
		} else if u > runnerUp {
			runnerUp = u
		}
	}
	if len(classes) == 2 {
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
	s.Candidates = candidates
	if candidates > 1 {
		s.RunnerUp, s.HasRunnerUp = runnerUp, true
	}
	return best, s
}

// randomProblem draws an n-class problem with ascending, gapped IDs,
// random minimums and step, and a mix of velocity and response-time
// classes. When twins is set every class shares one spec and minimum, so
// exchanges and grid points tie and the scan order decides.
func randomProblem(rnd *rand.Rand, n int, twins bool) Problem {
	p := Problem{
		Total: float64(5000 + 1000*rnd.Intn(26)),
		Step:  []float64{250, 500, 750, 1000, 1234.5}[rnd.Intn(5)],
	}
	spec := func() ClassSpec {
		imp := 1 + rnd.Intn(3)
		if rnd.Intn(2) == 0 {
			return ClassSpec{Utility: utility.NewVelocity(0.1+0.8*rnd.Float64(), imp),
				Predict: velPredict((0.3 + 1.5*rnd.Float64()) / p.Total)}
		}
		return ClassSpec{Utility: utility.NewResponseTime(0.05+0.5*rnd.Float64(), imp),
			Predict: rtPredict(0.1+0.9*rnd.Float64(), rnd.Float64()*4e-5, 0.02+0.2*rnd.Float64())}
	}
	minimum := func() float64 {
		if rnd.Intn(2) == 0 {
			return 0
		}
		return math.Floor(rnd.Float64() * p.Total / float64(2*n))
	}
	shared := spec()
	shared.Min = minimum()
	id := engine.ClassID(0)
	for i := 0; i < n; i++ {
		c := shared
		if !twins {
			c = spec()
			c.Min = minimum()
		}
		id += engine.ClassID(1 + rnd.Intn(3))
		c.ID = id
		p.Classes = append(p.Classes, c)
	}
	return p
}

func TestVectorSolverMatchesMapReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 240; trial++ {
		grid := trial%2 == 0
		n := 1 + rnd.Intn(6)
		if grid {
			n = 1 + rnd.Intn(3)
		}
		p := randomProblem(rnd, n, trial%3 == 0)
		var start Plan
		var refStart refPlan
		if rnd.Intn(2) == 0 {
			start = make(Plan, n)
			refStart = make(refPlan, n)
			for i, c := range p.Classes {
				start[i] = math.Floor(rnd.Float64() * p.Total)
				refStart[c.ID] = start[i]
			}
		}
		maxMoves := 0
		if rnd.Intn(4) == 0 {
			maxMoves = 1 + rnd.Intn(5)
		}

		var got Plan
		var gotS, wantS Search
		var want refPlan
		name := fmt.Sprintf("trial %d (greedy, %d classes, max moves %d)", trial, n, maxMoves)
		if grid {
			name = fmt.Sprintf("trial %d (grid, %d classes)", trial, n)
			got, gotS = Grid{}.SolveIntrospect(p, start)
			want, wantS = refGrid(p)
		} else {
			got, gotS = Greedy{MaxMoves: maxMoves}.SolveIntrospect(p, start)
			want, wantS = refGreedy(maxMoves, p, refStart)
		}
		if len(got) != n {
			t.Fatalf("%s: plan has %d limits", name, len(got))
		}
		for i, c := range p.Classes {
			if math.Float64bits(got[i]) != math.Float64bits(want[c.ID]) {
				t.Fatalf("%s: class %d limit %v, reference %v", name, c.ID, got[i], want[c.ID])
			}
		}
		if gotS.Iterations != wantS.Iterations || gotS.Candidates != wantS.Candidates ||
			gotS.HasRunnerUp != wantS.HasRunnerUp ||
			math.Float64bits(gotS.RunnerUp) != math.Float64bits(wantS.RunnerUp) {
			t.Fatalf("%s: search %+v, reference %+v", name, gotS, wantS)
		}
	}
}
