// Text rendering of experiment results: the same rows and series the
// paper's figures report, as aligned tables (and CSV for plotting).
package experiment

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/workload"
)

// WriteSaturation renders the E0 calibration curve.
func WriteSaturation(w io.Writer, points []SaturationPoint) {
	fmt.Fprintf(w, "System cost limit calibration (OLAP-only; pick the knee)\n")
	fmt.Fprintf(w, "%12s %16s %14s %10s\n", "limit(tmr)", "queries/hour", "mean RT(s)", "velocity")
	for _, p := range points {
		fmt.Fprintf(w, "%12.0f %16.1f %14.1f %10.3f\n",
			p.Limit, p.QueriesPerHour, p.MeanRespSeconds, p.MeanVelocity)
	}
}

// WriteFig2 renders Figure 2: OLTP response time vs. OLAP cost limit, one
// column per client mix.
func WriteFig2(w io.Writer, curves []Fig2Curve) {
	if len(curves) == 0 {
		return
	}
	fmt.Fprintf(w, "Figure 2: OLTP avg response time (s) vs. OLAP cost limit\n")
	fmt.Fprintf(w, "%12s", "limit(tmr)")
	for _, c := range curves {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("(%d,%d)", c.OLTPClients, c.OLAPClients))
	}
	fmt.Fprintln(w)
	for i, limit := range curves[0].Limits {
		fmt.Fprintf(w, "%12.0f", limit)
		for _, c := range curves {
			fmt.Fprintf(w, " %10.3f", c.MeanRT[i])
		}
		fmt.Fprintln(w)
	}
}

// WriteSchedule renders Figure 3: the client counts per period.
func WriteSchedule(w io.Writer, s workload.Schedule, classes []*workload.Class) {
	fmt.Fprintf(w, "Figure 3: workload schedule (%d periods x %.0f min)\n",
		s.Periods(), s.PeriodSeconds/60)
	fmt.Fprintf(w, "%8s", "period")
	for _, c := range classes {
		fmt.Fprintf(w, " %10s", c.Name)
	}
	fmt.Fprintln(w)
	for p := 0; p < s.Periods(); p++ {
		fmt.Fprintf(w, "%8d", p+1)
		for _, c := range classes {
			fmt.Fprintf(w, " %10d", s.Clients[p][c.ID])
		}
		fmt.Fprintln(w)
	}
}

// WriteMixed renders a Figure 4/5/6-style table: per-period goal-metric
// values per class, with goal attainment marks.
func WriteMixed(w io.Writer, r *MixedResult) {
	fmt.Fprintf(w, "Per-period performance under %s\n", r.Mode)
	fmt.Fprintf(w, "(velocity for OLAP classes; avg response time in seconds for OLTP; * = goal missed)\n")
	fmt.Fprintf(w, "%8s", "period")
	for _, c := range r.Classes {
		fmt.Fprintf(w, " %14s", c.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s", "goal")
	for _, c := range r.Classes {
		fmt.Fprintf(w, " %14s", c.Goal.String())
	}
	fmt.Fprintln(w)
	for p := 0; p < r.Periods; p++ {
		fmt.Fprintf(w, "%8d", p+1)
		for i := range r.Classes {
			mark := " "
			switch {
			case !r.Measurable[i][p]:
				mark = "?"
			case !r.GoalMet[i][p]:
				mark = "*"
			}
			fmt.Fprintf(w, " %13.3f%s", r.Metric[i][p], mark)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%8s", "met")
	for i := range r.Classes {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%.0f%%", 100*r.Satisfaction[i]))
	}
	fmt.Fprintln(w)
}

// WriteCostLimitTable renders Figure 7: the Query Scheduler's per-period mean
// class cost limits.
func WriteCostLimitTable(w io.Writer, r *MixedResult) {
	if r.CostLimits == nil {
		fmt.Fprintf(w, "(no cost-limit history: mode %s does not adapt limits)\n", r.Mode)
		return
	}
	fmt.Fprintf(w, "Figure 7: class cost limits (timerons) under Query Scheduler control\n")
	fmt.Fprintf(w, "%8s", "period")
	for _, c := range r.Classes {
		fmt.Fprintf(w, " %10s", c.Name)
	}
	fmt.Fprintf(w, " %10s\n", "total")
	for p := 0; p < r.Periods; p++ {
		fmt.Fprintf(w, "%8d", p+1)
		total := 0.0
		for i := range r.Classes {
			fmt.Fprintf(w, " %10.0f", r.CostLimits[i][p])
			total += r.CostLimits[i][p]
		}
		fmt.Fprintf(w, " %10.0f\n", total)
	}
}

// WriteInterception renders the Section 3 overhead comparison.
func WriteInterception(w io.Writer, r InterceptionOverheadResult) {
	fmt.Fprintf(w, "OLTP interception overhead (%d clients, %.0f ms overhead per query)\n",
		r.OLTPClients, r.OverheadCPU*1000)
	fmt.Fprintf(w, "  mean OLTP execution time:        %8.1f ms\n", r.MeanOLTPExecTime*1000)
	fmt.Fprintf(w, "  unmanaged mean response time:    %8.1f ms\n", r.UnmanagedMeanRT*1000)
	fmt.Fprintf(w, "  intercepted mean response time:  %8.1f ms (%.1fx)\n",
		r.DirectMeanRT*1000, r.DirectMeanRT/r.UnmanagedMeanRT)
}

// CSV renders any per-period matrix as CSV with a header, for plotting.
func CSV(header []string, cols ...[]float64) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	if len(cols) == 0 {
		return b.String()
	}
	for row := 0; row < len(cols[0]); row++ {
		for i, col := range cols {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", col[row])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SaturationCSV renders the E0 curve as CSV.
func SaturationCSV(points []SaturationPoint) string {
	var limits, qph, rt, vel []float64
	for _, p := range points {
		limits = append(limits, p.Limit)
		qph = append(qph, p.QueriesPerHour)
		rt = append(rt, p.MeanRespSeconds)
		vel = append(vel, p.MeanVelocity)
	}
	return CSV([]string{"limit", "queries_per_hour", "mean_rt_s", "velocity"},
		limits, qph, rt, vel)
}

// Fig2CSV renders the Figure 2 curves as CSV, one column per client mix.
func Fig2CSV(curves []Fig2Curve) string {
	if len(curves) == 0 {
		return ""
	}
	header := []string{"olap_limit"}
	cols := [][]float64{curves[0].Limits}
	for _, c := range curves {
		header = append(header, fmt.Sprintf("rt_%d_%d", c.OLTPClients, c.OLAPClients))
		cols = append(cols, c.MeanRT)
	}
	return CSV(header, cols...)
}

// MixedCSV renders a mixed run's per-period metrics (and P95s) as CSV.
func MixedCSV(r *MixedResult) string {
	header := []string{"period"}
	periods := make([]float64, r.Periods)
	for p := range periods {
		periods[p] = float64(p + 1)
	}
	cols := [][]float64{periods}
	for i, c := range r.Classes {
		header = append(header, fmt.Sprintf("%s_metric", csvName(c.Name)))
		cols = append(cols, r.Metric[i])
		header = append(header, fmt.Sprintf("%s_p95_s", csvName(c.Name)))
		cols = append(cols, r.RespP95[i])
	}
	return CSV(header, cols...)
}

// CostLimitsCSV renders Figure 7's per-period limits as CSV.
func CostLimitsCSV(r *MixedResult) string {
	if r.CostLimits == nil {
		return ""
	}
	header := []string{"period"}
	periods := make([]float64, r.Periods)
	for p := range periods {
		periods[p] = float64(p + 1)
	}
	cols := [][]float64{periods}
	for i, c := range r.Classes {
		header = append(header, fmt.Sprintf("%s_limit", csvName(c.Name)))
		cols = append(cols, r.CostLimits[i])
	}
	return CSV(header, cols...)
}

func csvName(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, " ", "_"))
}
