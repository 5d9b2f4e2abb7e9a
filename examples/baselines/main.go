// Baselines: the paper's comparison in one table — no class control vs.
// static DB2 QP priority control vs. the Query Scheduler, on a compressed
// version of the Figure 3 mixed workload.
//
//	go run ./examples/baselines
package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/workload"
)

// compressedSchedule reproduces the Figure 3 intensity pattern with
// 10-minute periods so the example finishes quickly.
func compressedSchedule() workload.Schedule {
	full := workload.PaperSchedule()
	full.PeriodSeconds = 600
	return full
}

func main() {
	sched := compressedSchedule()
	fmt.Printf("Mixed workload, %d periods x %.0f min (compressed Figure 3 schedule)\n\n",
		sched.Periods(), sched.PeriodSeconds/60)

	modes := []experiment.Mode{
		experiment.NoControl,
		experiment.QPPriority,
		experiment.QueryScheduler,
	}
	results := make([]*experiment.MixedResult, len(modes))
	for i, mode := range modes {
		results[i] = experiment.RunMixed(experiment.MixedConfig{
			Mode:  mode,
			Sched: sched,
			Seed:  1,
		})
	}

	classes := results[0].Classes
	fmt.Printf("%-28s", "goal satisfaction")
	for _, mode := range modes {
		fmt.Printf(" %16s", mode)
	}
	fmt.Println()
	for ci, c := range classes {
		fmt.Printf("%-28s", fmt.Sprintf("%s (%s)", c.Name, c.Goal))
		for mi := range modes {
			fmt.Printf(" %15.0f%%", 100*results[mi].Satisfaction[ci])
		}
		fmt.Println()
	}

	// The paper's stress case: OLTP response time in the heaviest
	// periods (3, 6, 9, ...) where 25 OLTP clients are active.
	fmt.Printf("\n%-28s", "OLTP heavy-period mean RT")
	for mi := range modes {
		heavy, _ := results[mi].HeavyOLTP()
		fmt.Printf(" %14.0fms", heavy*1000)
	}
	fmt.Println()

	// Differentiation: how often class 2 (higher goal and importance)
	// outperforms class 1.
	fmt.Printf("%-28s", "class2 >= class1 velocity")
	for mi := range modes {
		res := results[mi]
		better, comparable := 0, 0
		for p := 0; p < res.Periods; p++ {
			if res.Measurable[0][p] && res.Measurable[1][p] {
				comparable++
				if res.Metric[1][p] >= res.Metric[0][p] {
					better++
				}
			}
		}
		fmt.Printf(" %10d of %2d", better, comparable)
	}
	fmt.Println()
}
