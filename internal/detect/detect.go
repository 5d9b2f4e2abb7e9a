// Package detect implements the *workload detection* half of the paper's
// framework: "We view workload adaptation in general as consisting of two
// processes, workload detection and workload control. Workload detection
// identifies workload changes by monitoring and characterizing current
// workloads and predicting future workload trends."
//
// A Detector ingests per-interval observations of each service class
// (arrivals, completions, mean cost, concurrency) and maintains:
//
//   - a Characterization: smoothed arrival rate, demand rate (timerons/s
//     offered), cost mix, and trend per class;
//   - shift detection via a CUSUM test on the class's in-system
//     population (or, absent that signal, its arrival rate), flagging the
//     period boundaries of the paper's Figure 3 schedule without being
//     told where they are; and
//   - a one-interval-ahead forecast of offered demand, which the
//     Scheduling Planner can use feed-forward (see core.Config.FeedForward).
package detect

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Observation is one control interval's raw facts about one class.
type Observation struct {
	Time     simclock.Time
	Class    engine.ClassID
	Arrivals int     // queries submitted during the interval
	MeanCost float64 // mean timeron cost of the interval's arrivals
	Interval float64 // interval length in seconds
	// Population is the number of in-system queries of the class at
	// harvest time. With the paper's zero-think-time closed-loop clients
	// this equals the active client count exactly, which makes it the
	// preferred change-detection signal: the arrival rate of a closed
	// loop confounds intensity with response time (squeezing a class
	// lowers its arrival rate), while the population shifts only when
	// the offered workload does.
	Population float64
}

// Characterization is the detector's rolling description of one class.
type Characterization struct {
	Class engine.ClassID
	// Population is the smoothed in-system query count.
	Population float64
	// ArrivalRate is the smoothed arrival rate (queries/second).
	ArrivalRate float64
	// DemandRate is the smoothed offered demand (timerons/second).
	DemandRate float64
	// MeanCost is the smoothed per-query cost (timerons).
	MeanCost float64
	// Trend is the per-second slope of the arrival rate over the recent
	// window (queries/second per second); positive means intensifying.
	Trend float64
	// Shifted reports whether the most recent observation triggered the
	// change detector.
	Shifted bool
	// Intervals counts observations folded in so far.
	Intervals int
}

// Forecast is the detector's prediction for the next interval.
type Forecast struct {
	Class engine.ClassID
	// ArrivalRate is the predicted arrival rate (queries/second).
	ArrivalRate float64
	// DemandRate is the predicted offered demand (timerons/second).
	DemandRate float64
	// Confidence is a crude [0,1] score: 1 after a long stable stretch,
	// low right after a detected shift.
	Confidence float64
}

// The detector's settings. They are constants: an operator tunes the
// Query Scheduler through its cost limit and intervals, not through the
// detector.
const (
	// alpha is the EWMA smoothing factor for rates.
	alpha = 0.4
	// trendWindow is how many intervals the trend regression sees.
	trendWindow = 8
	// cusumThreshold is the cumulative deviation (in standard
	// deviations) that flags a shift.
	cusumThreshold = 4
	// cusumDrift is the slack per observation (in standard deviations)
	// absorbed before deviations accumulate.
	cusumDrift = 0.5
)

type classState struct {
	char     Characterization
	rateEWMA *stats.EWMA
	popEWMA  *stats.EWMA
	costEWMA *stats.EWMA
	trend    *stats.SlidingRegression

	// CUSUM state over the raw arrival rate.
	mean     stats.Summary // long-run rate statistics for normalization
	cusumPos float64
	cusumNeg float64

	sinceShift int
}

// Detector characterizes and forecasts a set of service classes.
type Detector struct {
	states map[engine.ClassID]*classState
	shifts []Shift
}

// Shift records one detected workload change.
type Shift struct {
	Time  simclock.Time
	Class engine.ClassID
	// Direction is +1 for intensifying, -1 for receding.
	Direction int
	// Rate is the raw detection-signal value that triggered the
	// detection (population when available, arrival rate otherwise).
	Rate float64
}

// New returns a detector that has observed nothing.
func New() *Detector {
	return &Detector{states: make(map[engine.ClassID]*classState)}
}

func (d *Detector) state(class engine.ClassID) *classState {
	s, ok := d.states[class]
	if !ok {
		s = &classState{
			rateEWMA: stats.NewEWMA(alpha),
			popEWMA:  stats.NewEWMA(alpha),
			costEWMA: stats.NewEWMA(alpha),
			trend:    stats.NewSlidingRegression(trendWindow),
		}
		s.char.Class = class
		d.states[class] = s
	}
	return s
}

// Observe folds one interval's observation into the detector and returns
// the updated characterization.
func (d *Detector) Observe(o Observation) Characterization {
	if o.Interval <= 0 {
		panic(fmt.Sprintf("detect: non-positive interval %v", o.Interval))
	}
	s := d.state(o.Class)
	rate := float64(o.Arrivals) / o.Interval

	// Change detection runs on the population signal when the caller
	// provides it (see Observation.Population), else on the raw rate.
	signal := rate
	if o.Population > 0 {
		signal = o.Population
	}
	s.char.Shifted = d.updateCUSUM(s, o, signal)

	s.rateEWMA.Add(rate)
	s.popEWMA.Add(o.Population)
	if o.Arrivals > 0 && o.MeanCost > 0 {
		s.costEWMA.Add(o.MeanCost)
	}
	s.trend.Add(o.Time, rate)
	s.char.Intervals++
	s.sinceShift++

	s.char.ArrivalRate = s.rateEWMA.Value()
	s.char.Population = s.popEWMA.Value()
	s.char.MeanCost = s.costEWMA.Value()
	s.char.DemandRate = s.char.ArrivalRate * s.char.MeanCost
	if fit, ok := s.trend.Fit(); ok {
		s.char.Trend = fit.Slope
	} else {
		s.char.Trend = 0
	}
	return s.char
}

// updateCUSUM runs the two-sided CUSUM change test on the detection
// signal and resets the smoothed state when a shift fires, so the
// characterization re-converges to the new regime quickly.
func (d *Detector) updateCUSUM(s *classState, o Observation, signal float64) bool {
	defer s.mean.Add(signal)
	if s.mean.Count() < 3 {
		return false // not enough history to normalize
	}
	sd := s.mean.StdDev()
	if sd < 1e-9 {
		sd = math.Max(1e-9, math.Abs(s.mean.Mean())*0.1+1e-9)
	}
	z := (signal - s.mean.Mean()) / sd
	s.cusumPos = math.Max(0, s.cusumPos+z-cusumDrift)
	s.cusumNeg = math.Max(0, s.cusumNeg-z-cusumDrift)
	dir := 0
	switch {
	case s.cusumPos > cusumThreshold:
		dir = 1
	case s.cusumNeg > cusumThreshold:
		dir = -1
	default:
		return false
	}
	d.shifts = append(d.shifts, Shift{Time: o.Time, Class: o.Class, Direction: dir, Rate: signal})
	s.cusumPos, s.cusumNeg = 0, 0
	s.mean.Reset()
	s.sinceShift = 0
	// Re-anchor the EWMA at the new regime's first sample.
	s.rateEWMA = stats.NewEWMA(alpha)
	s.trend.Reset()
	return true
}

// Characterization returns the current rolling description of a class
// (zero value if the class was never observed).
func (d *Detector) Characterization(class engine.ClassID) Characterization {
	if s, ok := d.states[class]; ok {
		return s.char
	}
	return Characterization{Class: class}
}

// Shifts returns every detected workload change, in detection order.
func (d *Detector) Shifts() []Shift { return d.shifts }

// Forecast predicts the next interval for a class: the smoothed rate
// extrapolated by the trend, with confidence discounted right after a
// shift.
func (d *Detector) Forecast(class engine.ClassID, horizon float64) Forecast {
	s, ok := d.states[class]
	if !ok || s.char.Intervals == 0 {
		return Forecast{Class: class}
	}
	rate := s.char.ArrivalRate + s.char.Trend*horizon
	if rate < 0 {
		rate = 0
	}
	conf := 1 - math.Exp(-float64(s.sinceShift)/4)
	return Forecast{
		Class:       class,
		ArrivalRate: rate,
		DemandRate:  rate * s.char.MeanCost,
		Confidence:  conf,
	}
}
