// Ablations of the Query Scheduler's design decisions (DESIGN.md §5),
// runnable as one parallel batch: every variant is an independent seeded
// run, so the whole table fans out on the worker pool instead of
// executing variant-by-variant.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/solver"
	"repro/internal/workload"
)

// AblationSpec is one Query Scheduler variant: a name and a mutation of
// the paper-default configuration.
type AblationSpec struct {
	Name   string
	Detail string
	Mutate func(*core.Config)
}

// AblationSpecs returns the standard variant set, baseline first.
func AblationSpecs() []AblationSpec {
	return []AblationSpec{
		{"baseline", "paper defaults", func(*core.Config) {}},
		{"grid-solver", "exhaustive grid search instead of greedy exchange",
			func(c *core.Config) { c.Solver = solver.Grid{} }},
		{"starvation-guard", "dispatcher releases oversized queries",
			func(c *core.Config) { c.StarvationGuard = true }},
		{"coarse-snapshots", "60s snapshot sampling instead of 10s",
			func(c *core.Config) { c.SnapshotInterval = 60 }},
		{"short-regression", "OLTP model fit over 4 intervals instead of 16",
			func(c *core.Config) { c.OLTP.Window = 4 }},
		{"slow-control-loop", "re-plan every 300s instead of 60s",
			func(c *core.Config) { c.ControlInterval = 300 }},
		{"throughput-model", "saturation-aware OLTP model",
			func(c *core.Config) { c.OLTP.Model = perfmodel.ThroughputModel }},
		{"feed-forward", "planner uses the detector's demand forecasts",
			func(c *core.Config) { c.FeedForward = true }},
	}
}

// RunAblations runs every variant over the given schedule (typically
// workload.PaperSchedule()) with the given seed, fanning the runs across
// the worker pool (0 = GOMAXPROCS, 1 = serial). Results are returned in
// spec order regardless of worker count.
func RunAblations(specs []AblationSpec, sched workload.Schedule, seed uint64, workers int) []*MixedResult {
	return Map(workers, specs, func(spec AblationSpec, _ int) *MixedResult {
		qs := core.DefaultConfig()
		qs.SystemCostLimit = SystemCostLimit
		spec.Mutate(&qs)
		return RunMixed(MixedConfig{
			Mode:  QueryScheduler,
			Sched: sched,
			Seed:  seed,
			QS:    &qs,
		})
	})
}

// WriteAblations renders the ablation comparison: per-class goal
// satisfaction plus the heavy-period OLTP response time for each variant.
func WriteAblations(w io.Writer, specs []AblationSpec, results []*MixedResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "Query Scheduler ablations (paper schedule)\n")
	fmt.Fprintf(w, "%-18s", "variant")
	for _, c := range results[0].Classes {
		fmt.Fprintf(w, " %10s", c.Name+" %")
	}
	fmt.Fprintf(w, " %15s  %s\n", "oltp-heavy(ms)", "what changed")
	for i, res := range results {
		fmt.Fprintf(w, "%-18s", specs[i].Name)
		for ci := range res.Classes {
			fmt.Fprintf(w, " %9.0f%%", 100*res.Satisfaction[ci])
		}
		if heavy, ok := res.HeavyOLTP(); ok {
			fmt.Fprintf(w, " %15.0f", heavy*1000)
		} else {
			fmt.Fprintf(w, " %15s", "-")
		}
		fmt.Fprintf(w, "  %s\n", specs[i].Detail)
	}
}
