// Command qsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	qsim -exp fig4            # per-period performance, no class control
//	qsim -exp fig6 -seed 7    # Query Scheduler run with another seed
//	qsim -exp fig6 -backends 3  # same run on a 3-backend fleet
//	qsim -exp routing         # E14: heterogeneous fleet + routing tier
//	qsim -exp failover        # E15: kill 1-of-3 backends mid-run
//	qsim -exp all             # everything, in paper order
//	qsim -exp fig2 -parallel 8  # fan the sweep across 8 workers
//
// Sweep-style experiments (syslimit, fig2, replicated, direct, overhead,
// detection-replicated, ablations) consist of many independent simulation
// runs; -parallel fans them across a bounded worker pool. Results are
// bit-identical for any worker count — each run owns its clock, engine,
// and RNG (see internal/experiment/parallel.go for the isolation
// invariant).
package main

import (
	"os"

	"repro/internal/cli"
)

func main() { os.Exit(cli.Qsim(os.Args[1:], os.Stdout, os.Stderr)) }
