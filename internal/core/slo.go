// SLO attainment accounting for the Query Scheduler: one observation
// per measured control tick per class — did the class's harvested metric
// meet its goal — folded into a cumulative attainment ratio and a
// sliding-window error-budget burn rate (obs.SLOWindow). The results
// ride on every PlanRecord, feeding the qs_slo_* gauges, the decision
// audit log, and qreport's attainment tables.
package core

// sloObserve folds one harvested measurement into the scheduler's SLO
// accounting and writes each class's attainment ratio and burn rate
// after this tick into its plan row. A class whose harvested value does
// not count this tick (Measurement.Observed) keeps its accumulated state
// and is simply re-reported.
func (qs *QueryScheduler) sloObserve(meas Measurement, rows []ClassPlan) {
	for i := range rows {
		row := &rows[i]
		c := qs.byID[i]
		if v, observed := meas.Observed(c.ID, c.Kind); observed {
			qs.sloObserved[i]++
			met := c.Goal.Met(v)
			if met {
				qs.sloMet[i]++
			}
			qs.sloWin[i].Observe(met)
		}
		row.Attainment = 1 // no evidence of violation before a measurement
		if n := qs.sloObserved[i]; n > 0 {
			row.Attainment = float64(qs.sloMet[i]) / float64(n)
		}
		row.BurnRate = qs.sloWin[i].BurnRate(qs.cfg.SLOBudget)
	}
}
