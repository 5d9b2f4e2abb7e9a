// SLO attainment accounting for the Query Scheduler: one observation
// per measured control tick per class — did the class's harvested metric
// meet its goal — folded into a cumulative attainment ratio and a
// sliding-window error-budget burn rate (obs.SLOWindow). The results
// ride on every PlanRecord, feeding the qs_slo_* gauges, the decision
// audit log, and qreport's attainment tables.
package core

import "repro/internal/workload"

// sloObserve folds one harvested measurement into the scheduler's SLO
// accounting and writes each class's attainment ratio and burn rate
// after this tick into its plan row. Classes without a trustworthy
// measurement this tick — idle OLAP classes, an OLTP interval with no
// sampled responses, or any fault-dropped view — keep their accumulated
// state and are simply re-reported.
func (qs *QueryScheduler) sloObserve(meas Measurement, rows []ClassPlan) {
	for i := range rows {
		row := &rows[i]
		c := qs.byID[i]
		var v float64
		observed := false
		if !meas.Dropped {
			switch c.Kind {
			case workload.OLAP:
				if m, _ := meas.Class(c.ID); !m.Idle {
					v, observed = m.Velocity, true
				}
			case workload.OLTP:
				if meas.OLTPSamples > 0 && !meas.OLTPDropout {
					v, observed = meas.OLTPRespTime, true
				}
			}
		}
		if observed {
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
