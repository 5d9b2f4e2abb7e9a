package router

import (
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// refScorer is one scorer as the router used to evaluate it: one
// interface call per (scorer, backend) pair, each reading one signal
// of the stub.
type refScorer interface {
	score(s *stub, q *engine.Query) float64
}

type refQueue struct{}

func (refQueue) score(s *stub, _ *engine.Query) float64 { return 1 / (1 + float64(s.queue)) }

type refLoad struct{}

func (refLoad) score(s *stub, _ *engine.Query) float64 { return 1 / (1 + s.load) }

type refAffinity struct{}

func (refAffinity) score(s *stub, q *engine.Query) float64 {
	if w, ok := s.aff[q.Class]; ok {
		return w
	}
	return 1
}

type refWeighted struct {
	scorer refScorer
	weight float64
}

// refRoute is the interface-scoring loop Submit is checked against: the
// weighted terms summed in policy order, down backends scored 0 and
// skipped, the migration source scored but skipped unless it is the only
// healthy backend, and the lowest roster index winning ties. It returns
// the winner's 1-based ID and every backend's score.
func refRoute(stubs []*stub, policy []refWeighted, down []bool, avoid int, q *engine.Query) (int, []float64) {
	scores := make([]float64, len(stubs))
	best := -1
	for i, s := range stubs {
		if down[i] {
			continue
		}
		v := 0.0
		for _, w := range policy {
			v += w.weight * w.scorer.score(s, q)
		}
		scores[i] = v
		if i+1 == avoid {
			continue
		}
		if best < 0 || v > scores[best] {
			best = i
		}
	}
	if best < 0 && avoid > 0 && !down[avoid-1] {
		best = avoid - 1
	}
	return stubs[best].id, scores
}

// TestSubmitMatchesInterfaceScoringReference routes random queries over
// random stub rosters and policies — one scorer, a scorer repeated, all
// three in random order — with weights spread over many decades, so the
// order of addition changes the rounding of the combined score. Backends
// go down and come back, and classes are drained by migrations. After
// every route (evacuees re-dispatched by MarkDown included) Submit must
// pick the reference's backend and report its scores bit for bit.
func TestSubmitMatchesInterfaceScoringReference(t *testing.T) {
	byName := map[string]Scorer{}
	for _, ws := range DefaultScorers() {
		byName[ws.Scorer.Name()] = ws.Scorer
	}
	refs := map[string]refScorer{"queue": refQueue{}, "load": refLoad{}, "affinity": refAffinity{}}
	names := []string{"queue", "load", "affinity"}
	if len(byName) != len(names) {
		t.Fatalf("DefaultScorers names %v, want %v", byName, names)
	}

	var routes, orderSensitive, migrationDecided, tieDecided int
	for seed := uint64(1); seed <= 300; seed++ {
		src := rng.New(seed)
		clock := simclock.New()
		n := 1 + src.Intn(5)
		stubs := make([]*stub, n)
		bs := make([]backend.Backend, n)
		for i := range stubs {
			stubs[i] = newStub(i+1, clock)
			bs[i] = stubs[i]
		}

		var pick []string
		switch seed % 3 {
		case 0: // one scorer
			pick = []string{names[src.Intn(3)]}
		case 1: // all three, in a random order
			for _, j := range src.Perm(3) {
				pick = append(pick, names[j])
			}
		default: // two to four draws, repeats allowed
			for k := 2 + src.Intn(3); k > 0; k-- {
				pick = append(pick, names[src.Intn(3)])
			}
		}
		policy := make([]Weighted, len(pick))
		ref := make([]refWeighted, len(pick))
		for k, name := range pick {
			w := src.Range(0.1, 10) * math.Pow(10, float64(src.Intn(9)-4))
			policy[k] = Weighted{Scorer: byName[name], Weight: w}
			ref[k] = refWeighted{scorer: refs[name], weight: w}
		}
		reversed := make([]refWeighted, len(ref))
		for k := range ref {
			reversed[k] = ref[len(ref)-1-k]
		}

		r := New(bs, policy)
		down := make([]bool, n)
		migration := map[engine.ClassID]int{}
		r.OnRoute(func(q *engine.Query, d Decision) {
			routes++
			want, scores := refRoute(stubs, ref, down, migration[q.Class], q)
			if d.Backend != want {
				t.Fatalf("seed %d policy %v class %d: routed to %d, reference %d (scores %v, reference %v)",
					seed, pick, q.Class, d.Backend, want, d.Scores, scores)
			}
			for i := range scores {
				if math.Float64bits(d.Scores[i]) != math.Float64bits(scores[i]) {
					t.Fatalf("seed %d policy %v class %d: backend %d scored %v, reference %v",
						seed, pick, q.Class, i+1, d.Scores[i], scores[i])
				}
			}
			if _, rs := refRoute(stubs, reversed, down, migration[q.Class], q); !bitsEqual(rs, scores) {
				orderSensitive++
			}
			if avoid := migration[q.Class]; avoid > 0 && want != avoid && !down[avoid-1] &&
				(scores[avoid-1] > scores[want-1] || (scores[avoid-1] == scores[want-1] && avoid < want)) {
				migrationDecided++
			}
			for i := want; i < n; i++ {
				if !down[i] && i+1 != migration[q.Class] && scores[i] == scores[want-1] {
					tieDecided++
					break
				}
			}
		})

		for step := 0; step < 40; step++ {
			for _, s := range stubs {
				if src.Intn(3) == 0 {
					s.queue = src.Intn(4)
				}
				if src.Intn(3) == 0 {
					s.load = []float64{0, 0.25, 1, src.Range(0, 3)}[src.Intn(4)]
				}
				if src.Intn(4) == 0 {
					s.aff = map[engine.ClassID]float64{}
					for c := engine.ClassID(0); c <= 3; c++ {
						if src.Intn(2) == 0 {
							s.aff[c] = []float64{0.5, 2, src.Range(0.1, 4)}[src.Intn(3)]
						}
					}
				}
			}
			switch k := src.Intn(10); {
			case k == 0 && r.HealthyCount() > 1:
				i := src.Intn(n)
				down[i] = true
				r.MarkDown(i + 1)
			case k == 1:
				i := src.Intn(n)
				down[i] = false
				r.MarkUp(i + 1)
			case k == 2:
				c, source := engine.ClassID(src.Intn(4)), 1+src.Intn(n)
				migration[c] = source
				r.SetMigration(c, source)
			case k == 3:
				c := engine.ClassID(src.Intn(4))
				delete(migration, c)
				r.ClearMigration(c)
			}
			submitOne(r, engine.ClassID(src.Intn(7)-1)) // -1..5: unlisted classes too
		}
	}
	t.Logf("%d routes: %d order-sensitive, %d decided by a migration skip, %d by the tie-break",
		routes, orderSensitive, migrationDecided, tieDecided)
	if orderSensitive == 0 || migrationDecided == 0 || tieDecided == 0 {
		t.Fatalf("the scripts never made the summation order (%d), a migration skip (%d) or the tie-break (%d) decide a score or a route",
			orderSensitive, migrationDecided, tieDecided)
	}
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
