package stats

import "fmt"

// Reservoir keeps a uniform random sample of a stream (Vitter's
// algorithm R), enabling quantile estimates over unbounded runs with
// bounded memory — how the metrics collector tracks tail response times
// across a 24-hour experiment.
//
// The replacement choices come from an internal deterministic generator
// so experiments stay reproducible; two reservoirs built with the same
// seed over the same stream are identical.
type Reservoir struct {
	k       int
	seen    int
	samples []float64
	state   uint64
}

// NewReservoir returns a reservoir keeping up to k samples.
func NewReservoir(k int, seed uint64) *Reservoir {
	if k <= 0 {
		panic(fmt.Sprintf("stats: non-positive reservoir size %d", k))
	}
	return &Reservoir{k: k, state: seed*2862933555777941757 + 3037000493}
}

func (r *Reservoir) next() uint64 {
	// xorshift64*: tiny, fast, and plenty uniform for sampling.
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 2685821657736338717
}

// Add offers one stream element to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.samples) < r.k {
		r.samples = append(r.samples, x)
		return
	}
	// Replace a random slot with probability k/seen.
	if j := int(r.next() % uint64(r.seen)); j < r.k {
		r.samples[j] = x
	}
}

// Len returns the number of retained samples.
func (r *Reservoir) Len() int { return len(r.samples) }

// Seen returns how many elements were offered.
func (r *Reservoir) Seen() int { return r.seen }

// Quantile estimates the p-quantile of the stream from the sample.
// It returns 0 when the reservoir is empty.
func (r *Reservoir) Quantile(p float64) float64 {
	return Percentile(r.samples, p)
}

// Samples returns a copy of the retained sample.
func (r *Reservoir) Samples() []float64 {
	out := make([]float64, len(r.samples))
	copy(out, r.samples)
	return out
}
