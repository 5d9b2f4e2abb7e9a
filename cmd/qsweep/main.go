// Command qsweep sweeps one Query Scheduler parameter across a list of
// values and tabulates goal satisfaction on the paper's workload — the
// generalization of the fixed ablation benchmarks.
//
// Usage:
//
//	qsweep -param control-interval -values 30,60,120,300
//	qsweep -param system-cost-limit -values 20000,30000,40000 -seed 2
//	qsweep -param plan-step -values 250,500,1000,2000 -parallel 4
//	qsweep -param system-cost-limit -values 20000,40000 -backends 3
//
// Parameters: control-interval, snapshot-interval, plan-step,
// min-olap-limit, system-cost-limit, oltp-window.
//
// -backends N runs every swept value on a fleet of N identical
// backends behind the routing tier instead of a single engine.
//
// Each swept value is an independent simulation run; -parallel fans them
// across a worker pool (0 = GOMAXPROCS, 1 = serial). Rows print in value
// order with identical numbers for any worker count.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() { os.Exit(cli.Qsweep(os.Args[1:], os.Stdout, os.Stderr)) }
