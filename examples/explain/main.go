// Explain: inspect the optimizer cost model — the source of the timeron
// estimates every controller in this repository schedules by.
//
// Prints the access plan and cost breakdown of each TPC-H-like template
// (the moral equivalent of DB2's EXPLAIN), the resulting cost
// distribution, and the TPC-C-like transaction costs, with the 5%/15%/80%
// large/medium/small partition the DB2 QP baseline uses.
//
//	go run ./examples/explain
package main

import (
	"fmt"
	"sort"

	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/workload"
)

func main() {
	model := optimizer.DefaultModel()
	opt := optimizer.New(model, workload.TPCHCatalog())
	set := workload.NewSet(opt, workload.TPCHTemplates())

	fmt.Println("== TPC-H-like template costs (500 MB database) ==")
	type row struct {
		name     string
		timerons float64
		cpu, io  float64
		par      int
		exec     float64
	}
	var rows []row
	for i, t := range set.Templates() {
		c := set.BaseCost(i)
		tm := set.BaseTimerons(i)
		par := workload.ParallelismFor(tm)
		d := workload.DemandFor(c, par)
		rows = append(rows, row{t.Name, tm, c.CPUSeconds, c.IOSeconds, par, d.Work})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].timerons > rows[j].timerons })
	fmt.Printf("%-6s %10s %9s %9s %5s %10s\n", "query", "timerons", "cpu(s)", "io(s)", "par", "alone(s)")
	for _, r := range rows {
		fmt.Printf("%-6s %10.0f %9.1f %9.1f %5d %10.1f\n",
			r.name, r.timerons, r.cpu, r.io, r.par, r.exec)
	}

	// The QP baseline's size groups, derived the way an administrator
	// would: from a sample of historical costs.
	src := rng.New(99)
	var sample []float64
	for i := 0; i < 4096; i++ {
		_, cost, _ := set.Generate(src)
		sample = append(sample, cost)
	}
	th := patroller.ThresholdsFromSample(sample)
	fmt.Printf("\nDB2 QP size groups from a %d-query sample:\n", len(sample))
	fmt.Printf("  large  (top 5%%):  cost >= %8.0f timerons\n", th.LargeMin)
	fmt.Printf("  medium (next 15%%): cost >= %8.0f timerons\n", th.MediumMin)
	fmt.Printf("  small  (rest):     cost <  %8.0f timerons\n", th.MediumMin)

	// One full EXPLAIN, for the heaviest template.
	heaviest := rows[0].name
	for _, t := range set.Templates() {
		if t.Name == heaviest {
			fmt.Printf("\n== EXPLAIN %s ==\n%s", t.Name, opt.Explain(t.Plan))
		}
	}

	fmt.Println("\n== TPC-C-like transaction costs (50 warehouses) ==")
	coltp := optimizer.New(model, workload.TPCCCatalog())
	oltp := workload.NewSet(coltp, workload.TPCCTemplates())
	fmt.Printf("%-12s %9s %9s %9s %11s\n", "transaction", "weight", "timerons", "cpu(ms)", "io(ms)")
	for i, t := range oltp.Templates() {
		c := oltp.BaseCost(i)
		fmt.Printf("%-12s %8.0f%% %9.2f %9.2f %11.2f\n",
			t.Name, 100*t.Weight/92, oltp.BaseTimerons(i), c.CPUSeconds*1000, c.IOSeconds*1000)
	}
	fmt.Println("\nNote the four-orders-of-magnitude gap between OLAP and OLTP costs —")
	fmt.Println("why the paper controls OLAP by cost but cannot afford to intercept OLTP.")
}
