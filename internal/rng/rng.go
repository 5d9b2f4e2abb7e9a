// Package rng provides a small deterministic pseudo-random number generator
// and the distributions the workload generators and cost model need.
//
// Experiments in this repository must be reproducible run-to-run, so
// nothing here touches math/rand's global state; every consumer owns a
// Source seeded explicitly.
package rng

import "math"

// Source is a splitmix64-based PRNG. It is small, fast, and passes the
// statistical quality bar needed for workload generation. The zero value is
// a valid generator (seed 0 is remapped internally).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed + 0x9e3779b97f4a7c15}
}

// Split returns a new, independent Source derived from s. Useful for giving
// each simulated client its own stream so adding a client does not perturb
// the others' draws.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// State returns the generator's raw cursor. Restoring it with SetState
// resumes the stream at exactly the same position (the client pool parks
// an idle client as its cursor).
func (s *Source) State() uint64 { return s.state }

// SetState repositions the generator's cursor (see State).
func (s *Source) SetState(v uint64) { s.state = v }

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value (Box-Muller).
func (s *Source) Normal(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNormalMedian returns a log-normal draw with the given median and
// shape sigma. Convenient for "typically X, occasionally much larger"
// service demands.
func (s *Source) LogNormalMedian(median, sigma float64) float64 {
	return median * math.Exp(s.Normal(0, sigma))
}

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. It panics on an empty or
// non-positive-total weight slice.
func (s *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: WeightedChoice with no positive weights")
	}
	return s.WeightedChoiceSum(weights, total)
}

// WeightedChoiceSum is WeightedChoice for a caller that has already
// validated weights and summed them, in slice order, into total. It
// draws the same index from the same source state.
func (s *Source) WeightedChoiceSum(weights []float64, total float64) int {
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
