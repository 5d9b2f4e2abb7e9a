package perfmodel

import (
	"math"

	"repro/internal/stats"
)

// OLTPThroughput is the alternative OLTP performance model the paper's
// future-work section asks for ("Performance modeling for OLTP workload
// is another issue that needs to be addressed").
//
// The paper's linear model t^k = t^{k-1} + s·ΔC is a local tangent: it
// cannot represent the hyperbolic response-time blow-up as the OLAP
// classes crowd the CPUs. This model works in throughput space instead.
// With zero-think-time closed-loop clients, operational analysis gives
//
//	R = N / X
//
// where N is the OLTP in-system population and X its throughput. Every
// admitted OLAP timeron consumes a roughly fixed slice of the CPUs, so X
// is approximately *affine in the OLTP class's virtual cost limit*:
//
//	X(C) = α + β·C        (β > 0: a bigger virtual limit means less
//	                       OLAP admission and more CPU for OLTP)
//
// α and β are fit online by least squares over recent intervals, and the
// prediction R(C) = N / X(C) recovers the hyperbola the linear model
// misses: shrinking C toward saturation divides, not subtracts.
//
// The model composes the linear one: it feeds its fallback every sample,
// and until its own fit is usable its Name and Predict are the
// fallback's.
type OLTPThroughput struct {
	reg      *stats.SlidingRegression
	fallback *OLTPResponse

	lastN float64 // most recent population
}

// The throughput model's constants.
const (
	// throughputWindow is how many past intervals the regression sees.
	throughputWindow = 16
	// minThroughput floors X(C) so predictions never divide by ~0.
	minThroughput = 0.5
)

// NewOLTPThroughput builds the model over the linear model it falls back
// on.
func NewOLTPThroughput(fallback *OLTPResponse) *OLTPThroughput {
	return &OLTPThroughput{reg: stats.NewSlidingRegression(throughputWindow), fallback: fallback}
}

// Name identifies the model answering Predict: this one once its fit is
// usable, the fallback's before.
func (m *OLTPThroughput) Name() string {
	if _, ok := m.beta(); !ok {
		return m.fallback.Name()
	}
	return ThroughputModel
}

// Observe feeds the fallback, then records the interval's throughput
// X = N/R (Little's law on the closed loop) at limit s.Limit. Intervals
// without a positive response time and population add no point.
func (m *OLTPThroughput) Observe(s Sample) {
	m.fallback.Observe(s)
	if math.IsNaN(s.Limit) || s.Value <= 0 || s.Population <= 0 {
		return
	}
	m.lastN = s.Population
	m.reg.Add(s.Limit, s.Population/s.Value)
}

// beta returns the fitted slope β of the throughput curve, ok=false
// before enough data or when the fit has the wrong sign.
func (m *OLTPThroughput) beta() (float64, bool) {
	if m.reg.Len() < minPoints {
		return 0, false
	}
	f, fitted := m.reg.Fit()
	// A negative slope claims more OLTP budget hurts OLTP — noise.
	if !fitted || f.Slope < 0 {
		return 0, false
	}
	return f.Slope, true
}

// Predict returns the expected mean response time at limit cNew, given
// the latest measurement tPrev at limit cPrev; without a usable fit it is
// the fallback's prediction.
func (m *OLTPThroughput) Predict(tPrev, cPrev, cNew float64) float64 {
	beta, ok := m.beta()
	if !ok {
		return m.fallback.Predict(tPrev, cPrev, cNew)
	}
	// Re-anchor the curve so it passes through the current observation:
	// keep the fitted slope, shift the intercept to match X(cPrev).
	xNow := m.lastN / math.Max(tPrev, 1e-9)
	xNew := xNow + beta*(cNew-cPrev)
	if xNew < minThroughput {
		xNew = minThroughput
	}
	return m.lastN / xNew
}
