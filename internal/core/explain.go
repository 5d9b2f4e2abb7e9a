package core

import (
	"fmt"
	"strings"

	"repro/internal/utility"
	"repro/internal/workload"
)

// ExplainPlan renders why a control interval's plan looks the way it
// does: per class, the measured performance, its goal, the utility earned
// at the chosen limit, and what the detector saw. Autonomic systems are
// notoriously opaque; this is the operator's window into the planner.
func (qs *QueryScheduler) ExplainPlan(rec PlanRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan at t=%.0fs (total utility %.3f, OLTP model slope %.2g)\n",
		rec.Time, rec.Utility, rec.OLTPSlope)
	fmt.Fprintf(&b, "%-10s %10s %12s %10s %10s %9s %s\n",
		"class", "limit", "measured", "goal", "utility", "pop", "notes")

	for _, c := range qs.byID {
		m, _ := rec.Measurement.Class(c.ID)
		row, _ := rec.Class(c.ID)
		var measured float64
		var u utility.Function
		var notes []string
		switch c.Kind {
		case workload.OLAP:
			measured = m.Velocity
			u = utility.NewVelocity(c.Goal.Target, c.Importance)
			if m.Idle {
				notes = append(notes, "idle")
			} else if m.VelocitySamples == 0 {
				notes = append(notes, "in-flight estimate")
			}
		case workload.OLTP:
			measured = rec.Measurement.OLTPRespTime
			u = utility.NewResponseTime(c.Goal.Target, c.Importance)
			notes = append(notes, fmt.Sprintf("%d snapshot samples", rec.Measurement.OLTPSamples))
			notes = append(notes, "virtual limit (not intercepted)")
		}
		if !c.Goal.Met(measured) {
			notes = append(notes, "VIOLATING")
		}
		if row.Workload.Shifted {
			notes = append(notes, "workload shift detected")
		}
		fmt.Fprintf(&b, "%-10s %10.0f %12.3f %10s %10.3f %9.1f %s\n",
			c.Name, row.Limit, measured, c.Goal,
			u.Utility(measured), row.Workload.Population,
			strings.Join(notes, ", "))
	}
	return b.String()
}
