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
// resumes the stream at exactly the same position (the streaming client
// pool parks a client as its cursor).
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

// LogNormal returns a log-normally distributed value where the underlying
// normal has parameters mu and sigma. The median of the result is exp(mu).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMedian returns a log-normal draw with the given median and
// shape sigma. Convenient for "typically X, occasionally much larger"
// service demands.
func (s *Source) LogNormalMedian(median, sigma float64) float64 {
	return median * math.Exp(s.Normal(0, sigma))
}

// BoundedPareto returns a Pareto(alpha) draw truncated to [lo, hi]. Used
// for the heavy-tailed OLAP cost distribution.
func (s *Source) BoundedPareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("rng: BoundedPareto requires 0 < lo < hi")
	}
	u := s.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
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
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
