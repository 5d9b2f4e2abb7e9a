// Package perfmodel implements the paper's two performance models — the
// functions the Scheduling Planner uses to predict how a class's metric
// responds to a change in its cost limit.
//
// OLAP classes (Section 2 of the paper, from ref [4]):
//
//	V_i^k = min(1, V_i^{k-1} · C_i^k / C_i^{k-1})
//
// i.e. velocity scales proportionally with the class cost limit, capped at
// the ideal 1.
//
// The OLTP class (Section 3.2):
//
//	t^k = t^{k-1} + s · (C^k − C^{k-1})
//
// where C is the OLTP class's (virtual) cost limit and s is a constant
// "obtained using linear regression". Because the OLTP class is controlled
// only indirectly — growing its limit shrinks the OLAP classes' share —
// s is negative: more resources, lower response time. The slope is fit
// online over a sliding window of (limit, response-time) observations from
// past control intervals.
//
// Every model is a Predictor. The OLTP model that runs is named by
// OLTPConfig.Model, and NewOLTP builds it; no other package knows which
// OLTP models exist or how one falls back on another.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Sample is one control interval's observation of a class.
type Sample struct {
	// Limit is the class cost limit in force over the interval.
	Limit float64
	// Value is the measured metric: velocity for an OLAP class, mean
	// response time for the OLTP class.
	Value float64
	// Population is the class's in-system population.
	Population float64
}

// Predictor is a performance model: it learns from one Sample per
// control interval and predicts a class's metric at a candidate limit.
// Name and Predict read the model's state and never change it; only
// Observe does.
type Predictor interface {
	// Name identifies the model that answers Predict, for
	// prediction-provenance records (the decision audit log's "which
	// model produced this forecast" field).
	Name() string
	// Observe records one interval's measurement.
	Observe(Sample)
	// Predict returns the metric expected at limit cNew, given the
	// anchor measured at limit cPrev.
	Predict(anchor, cPrev, cNew float64) float64
}

// OLAPVelocity is the stateless velocity scaling model.
//
// Floor regularizes the multiplicative update: a class squeezed to the
// point where nothing completes measures velocity 0, and 0 · C/C' is 0 at
// every candidate limit — the planner would never see a reason to give the
// class resources again. Flooring the anchor velocity keeps the predicted
// gradient alive so a starved class can recover.
type OLAPVelocity struct {
	Floor float64
}

// DefaultVelocityFloor is the anchor floor used by the Query Scheduler.
const DefaultVelocityFloor = 0.05

// Name identifies the model in prediction-provenance records.
func (OLAPVelocity) Name() string { return "olap-velocity" }

// Observe does nothing: the model has no state.
func (OLAPVelocity) Observe(Sample) {}

// Predict returns the predicted velocity at limit cNew given the measured
// velocity vPrev at limit cPrev.
func (m OLAPVelocity) Predict(vPrev, cPrev, cNew float64) float64 {
	if vPrev < m.Floor {
		vPrev = m.Floor
	}
	if cPrev <= 0 {
		// No history at a meaningful limit: be optimistic in proportion
		// to the new limit being non-zero at all.
		if cNew > 0 {
			return clamp01(vPrev)
		}
		return 0
	}
	if cNew <= 0 {
		return 0
	}
	return clamp01(vPrev * cNew / cPrev)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// OLTP model names, as OLTPConfig.Model and the provenance records
// carry them.
const (
	// LinearModel is the paper's regression-fitted linear model
	// (OLTPResponse).
	LinearModel = "oltp-linear"
	// ThroughputModel is the saturation-aware model (OLTPThroughput),
	// which answers as the linear model until its own fit is usable.
	ThroughputModel = "oltp-throughput"
)

// The linear model's fitting constants, shared by every run.
const (
	// priorSlope is the seconds-per-timeron slope assumed before enough
	// observations accumulate (negative: more limit, faster responses).
	priorSlope = -5e-6
	// minPoints is how many observations are required before a fitted
	// slope replaces the prior; the throughput model gates its fit the
	// same way.
	minPoints = 4
	// maxAbsSlope bounds the fitted slope; wilder fits (from measurement
	// noise over a near-constant limit) fall back to the prior.
	maxAbsSlope = 1e-3
)

// OLTPConfig tunes the OLTP response-time model.
type OLTPConfig struct {
	// Model names the OLTP predictor: "" or LinearModel for the paper's
	// model, ThroughputModel for the throughput model over it.
	Model string
	// Window is how many past control intervals the regression sees.
	Window int
	// FallbackToLastFit changes what an ill-conditioned window falls back
	// to: the last usable fitted slope instead of the prior slope. With
	// fault injection a window can degenerate mid-run (dropped harvests
	// leave <2 distinct limits, or a storm yields an absurd slope); the
	// most recent trusted fit is a better guess than the cold-start
	// prior. Off by default to keep the paper-faithful behaviour.
	FallbackToLastFit bool
}

// DefaultOLTPConfig returns the configuration used in the experiments.
func DefaultOLTPConfig() OLTPConfig {
	return OLTPConfig{Window: 16}
}

// Validate reports why NewOLTP would refuse the config: a window too
// small to fit, or too small to hold the minPoints observations a fit
// needs (the prior would stand for the whole run), or an unknown model
// name.
func (c OLTPConfig) Validate() error {
	switch {
	case c.Window < 2:
		return fmt.Errorf("perfmodel: OLTP window %d must be at least 2", c.Window)
	case c.Window < minPoints:
		return fmt.Errorf("perfmodel: OLTP MinPoints %d exceeds the window %d, so the slope would never be fitted", minPoints, c.Window)
	}
	switch c.Model {
	case "", LinearModel, ThroughputModel:
		return nil
	}
	return fmt.Errorf("perfmodel: unknown OLTP model %q; choose %s or %s", c.Model, LinearModel, ThroughputModel)
}

// NewOLTP builds the OLTP predictor cfg.Model names. It also returns the
// linear model inside it — the predictor itself under LinearModel, the
// fallback under ThroughputModel — whose slope s is what the decision log
// records under either model.
func NewOLTP(cfg OLTPConfig) (Predictor, *OLTPResponse, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	lin := NewOLTPResponse(cfg)
	if cfg.Model == ThroughputModel {
		return NewOLTPThroughput(lin), lin, nil
	}
	return lin, lin, nil
}

// OLTPResponse is the online-fitted linear response-time model.
type OLTPResponse struct {
	cfg OLTPConfig
	reg *stats.SlidingRegression

	lastFit float64 // most recent usable fitted slope
	hasFit  bool
}

// NewOLTPResponse builds the linear model. It panics on a config that
// Validate rejects.
func NewOLTPResponse(cfg OLTPConfig) *OLTPResponse {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &OLTPResponse{cfg: cfg, reg: stats.NewSlidingRegression(cfg.Window)}
}

// Name identifies the model in prediction-provenance records.
func (m *OLTPResponse) Name() string { return LinearModel }

// Observe records the measured average response time s.Value under cost
// limit s.Limit for one control interval, and remembers the window's
// fitted slope when it is usable.
func (m *OLTPResponse) Observe(s Sample) {
	if math.IsNaN(s.Limit) || math.IsNaN(s.Value) || s.Value < 0 {
		return
	}
	m.reg.Add(s.Limit, s.Value)
	if fit, ok := m.fit(); ok {
		m.lastFit, m.hasFit = fit, true
	}
}

// fit returns the window's fitted slope, ok=false when it is not usable.
func (m *OLTPResponse) fit() (float64, bool) {
	if m.reg.Len() < minPoints {
		return 0, false
	}
	fit, ok := m.reg.Fit()
	if !ok {
		// Fewer than two distinct limits in the window: the slope is
		// unidentifiable.
		return 0, false
	}
	// A positive slope would claim that giving the OLTP class more
	// resources slows it down — an artifact of noise; so would an
	// implausibly steep one. Fall back rather than trust it.
	if fit.Slope >= 0 || math.Abs(fit.Slope) > maxAbsSlope {
		return 0, false
	}
	return fit.Slope, true
}

// Slope returns the model's current s: the fitted regression slope when
// enough well-conditioned data exists, otherwise the fallback — the last
// usable fit when FallbackToLastFit is set and one exists, the prior
// slope otherwise.
func (m *OLTPResponse) Slope() float64 {
	if s, ok := m.fit(); ok {
		return s
	}
	if m.cfg.FallbackToLastFit && m.hasFit {
		return m.lastFit
	}
	return priorSlope
}

// Predict returns the predicted average response time at limit cNew given
// the measured time tPrev at limit cPrev. Predictions never go negative.
func (m *OLTPResponse) Predict(tPrev, cPrev, cNew float64) float64 {
	t := tPrev + m.Slope()*(cNew-cPrev)
	if t < 0 {
		return 0
	}
	return t
}
