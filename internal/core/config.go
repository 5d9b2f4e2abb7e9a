// Package core implements the paper's contribution: the Query Scheduler, a
// prototype of the workload-adaptation framework for autonomic DBMSs,
// extended to mixed OLAP/OLTP workloads.
//
// Architecture (the paper's Figure 1): Query Patroller intercepts queries
// of the managed (OLAP) classes and blocks them; the Monitor collects
// query information from the control tables and — for the unmanaged OLTP
// class — from the engine's snapshot monitor; the Classifier assigns each
// query to a service class; the Scheduling Planner periodically consults
// the Performance Solver for a utility-optimal scheduling plan (a vector
// of class cost limits summing to the system cost limit); and the
// Dispatcher releases blocked queries so each class's executing cost stays
// within its limit.
//
// The OLTP class is never intercepted (the interception overhead would
// dwarf sub-second transactions); it is controlled indirectly: its
// "virtual" cost limit claims a share of the system cost limit, and
// whatever the OLTP class holds is withheld from the OLAP classes.
package core

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/perfmodel"
	"repro/internal/solver"
)

// Config tunes the Query Scheduler.
type Config struct {
	// SystemCostLimit is the fixed total the class cost limits sum to,
	// in timerons — determined experimentally so the DBMS stays
	// under-saturated (30,000 in the paper; see the saturation example).
	SystemCostLimit float64
	// ControlInterval is how often the Scheduling Planner re-plans, in
	// seconds.
	ControlInterval float64
	// SnapshotInterval is how often the Monitor samples the snapshot
	// monitor for OLTP response times, in seconds (10 in the paper —
	// small enough for accuracy, large enough to keep overhead low).
	SnapshotInterval float64
	// PlanStep is the solver's cost-limit granularity in timerons.
	PlanStep float64
	// MinOLAPLimit is the smallest limit an OLAP class may be assigned;
	// keeping it positive lets a throttled class still make progress so
	// its measured velocity stays informative.
	MinOLAPLimit float64
	// MinOLTPLimit is the smallest virtual limit for the OLTP class.
	MinOLTPLimit float64
	// StarvationGuard, when true, releases a class's head-of-queue query
	// even if its cost alone exceeds the class limit, provided the class
	// has nothing executing. The paper's dispatcher has no such guard
	// (an under-allocated class's velocity collapses and the planner
	// reacts instead); it is kept as an ablation.
	StarvationGuard bool
	// Solver picks the plan optimizer (default: greedy coordinate
	// exchange; the grid solver is the exhaustive ablation).
	Solver solver.Solver
	// OLTP tunes the OLTP response-time model.
	OLTP perfmodel.OLTPConfig
	// OLTPModel selects the prediction model for the OLTP class:
	// LinearOLTPModel is the paper's t + s·ΔC; ThroughputOLTPModel is
	// the future-work saturation-aware model (R = N/X with X affine in
	// the virtual limit), falling back to the linear model until its fit
	// is usable.
	OLTPModel OLTPModelKind
	// Detection tunes the workload detector that characterizes each
	// class and flags intensity shifts (always running; its output is
	// recorded in the plan history).
	Detection detect.Config
	// FeedForward, when true, lets the planner use the detector's
	// demand forecast: an OLAP class forecast to intensify has its
	// velocity anchor discounted proportionally, so the plan leads the
	// workload change instead of trailing it by one interval.
	FeedForward bool
	// Degradation tunes the control loop's behaviour when the monitor's
	// view is corrupted (fault injection, lost harvests).
	Degradation Degradation
	// MonitorFaults, when non-nil, lets a fault plan corrupt the
	// monitor's observations (see internal/fault). Nil in production
	// runs.
	MonitorFaults MonitorFaultInjector
	// SLOWindow is the sliding-window length, in control ticks, of the
	// per-class error-budget accounting (qs_slo_burn_rate and the
	// decision audit log's burn column). 0 means the default.
	SLOWindow int
	// SLOBudget is the allowed miss fraction inside the window: a class
	// missing its goal in more than SLOBudget of the window's ticks has
	// a burn rate above 1. 0 means the default.
	SLOBudget float64
}

// MonitorFaultInjector is the monitor-side fault contract: whether the
// snapshot poll or the whole control-interval harvest at time t is lost.
// Implemented by fault.Injector.
type MonitorFaultInjector interface {
	DropSnapshot(t float64) bool
	DropHarvest(t float64) bool
}

// Degradation configures graceful degradation of the Scheduling Planner.
type Degradation struct {
	// HoldPlanOnDropout keeps the previous scheduling plan when a
	// harvest is lost or the OLTP view is entirely fault-dropped,
	// instead of feeding the zeroed measurement into the performance
	// models. Off by default (the paper's planner has no such guard).
	HoldPlanOnDropout bool
	// MaxHeldTicks bounds how many consecutive control intervals the
	// plan may be held; after that the planner replans with whatever
	// data it has rather than freeze indefinitely. 0 means no bound.
	MaxHeldTicks int
}

// OLTPModelKind selects the OLTP performance model.
type OLTPModelKind int

// OLTP model kinds.
const (
	// LinearOLTPModel is the paper's regression-fitted linear model.
	LinearOLTPModel OLTPModelKind = iota
	// ThroughputOLTPModel predicts through the throughput curve
	// (perfmodel.OLTPThroughput).
	ThroughputOLTPModel
)

// DefaultConfig returns the configuration used in the paper's experiments.
func DefaultConfig() Config {
	return Config{
		SystemCostLimit:  30000,
		ControlInterval:  60,
		SnapshotInterval: 10,
		PlanStep:         500,
		MinOLAPLimit:     500,
		MinOLTPLimit:     0,
		StarvationGuard:  false,
		Solver:           solver.Greedy{},
		OLTP:             perfmodel.DefaultOLTPConfig(),
		Detection:        detect.DefaultConfig(),
		SLOWindow:        DefaultSLOWindow,
		SLOBudget:        DefaultSLOBudget,
	}
}

// SLO accounting defaults: a 10-tick window with 10% of ticks allowed
// to miss. At the paper's 60 s control interval the window spans ten
// minutes — long enough to smooth single-tick blips, short enough that
// a burst's burn rate crosses 1 within a couple of ticks.
const (
	DefaultSLOWindow = 10
	DefaultSLOBudget = 0.1
)

// withDefaults fills in zero-valued sub-configurations so hand-built
// Configs keep working.
func (c Config) withDefaults() Config {
	if c.Detection == (detect.Config{}) {
		c.Detection = detect.DefaultConfig()
	}
	if c.SLOWindow == 0 {
		c.SLOWindow = DefaultSLOWindow
	}
	if c.SLOBudget == 0 {
		c.SLOBudget = DefaultSLOBudget
	}
	return c
}

// Validate reports the error New would return for this config, with the
// same zero-value defaults filled in first.
func (c Config) Validate() error { return c.withDefaults().validate() }

func (c Config) validate() error {
	if c.SystemCostLimit <= 0 {
		return fmt.Errorf("core: system cost limit %v must be positive", c.SystemCostLimit)
	}
	if c.ControlInterval <= 0 || c.SnapshotInterval <= 0 {
		return fmt.Errorf("core: intervals must be positive")
	}
	if c.PlanStep <= 0 || c.PlanStep > c.SystemCostLimit {
		return fmt.Errorf("core: plan step %v out of range", c.PlanStep)
	}
	if c.MinOLAPLimit < 0 || c.MinOLTPLimit < 0 {
		return fmt.Errorf("core: negative class minimum")
	}
	if c.Solver == nil {
		return fmt.Errorf("core: nil solver")
	}
	if c.SLOWindow < 0 {
		return fmt.Errorf("core: SLO window %d must be positive", c.SLOWindow)
	}
	if c.SLOBudget < 0 || c.SLOBudget > 1 {
		return fmt.Errorf("core: SLO budget %v out of (0, 1]", c.SLOBudget)
	}
	return nil
}
