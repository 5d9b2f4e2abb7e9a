package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// cell is one (class, period) entry of a run's simulated tables.
type cell struct {
	completed, pending int
	measurable, met    bool
	metric, p95        float64
}

// digestCells hashes simulated period tables: per class (ascending ID)
// and period, the completions, end-of-period backlog, measurability,
// goal verdict, goal metric and p95 response time. Two runs with equal
// digests produced the same simulated outcome.
func digestCells(periods int, classes []engine.ClassID, at func(i, p int) cell) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	bit := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(uint64(periods))
	for i, id := range classes {
		put(uint64(id))
		for p := 0; p < periods; p++ {
			c := at(i, p)
			put(uint64(c.completed))
			put(uint64(c.pending))
			put(bit(c.measurable))
			put(bit(c.met))
			put(math.Float64bits(c.metric))
			put(math.Float64bits(c.p95))
		}
	}
	return h.Sum64()
}

// tableDigest digests a RunMixed result's period tables.
func tableDigest(res *experiment.MixedResult) uint64 {
	ids := make([]engine.ClassID, len(res.Classes))
	for i, c := range res.Classes {
		ids[i] = c.ID
	}
	return digestCells(res.Periods, ids, func(i, p int) cell {
		return cell{completed: res.Completed[i][p], pending: res.Pending[i][p],
			measurable: res.Measurable[i][p], met: res.GoalMet[i][p],
			metric: res.Metric[i][p], p95: res.RespP95[i][p]}
	})
}

// collectorDigest digests the tables a collector would give RunMixed's
// result, for stacks the benchmark builds itself. It equals tableDigest
// of the same simulation run through RunMixed.
func collectorDigest(col *metrics.Collector) uint64 {
	ids := col.ClassIDs()
	return digestCells(col.Periods(), ids, func(i, p int) cell {
		id := ids[i]
		v, ok := col.Metric(p, id)
		c := cell{completed: col.Agg(p, id).Completed, pending: col.Pending(p, id),
			measurable: ok, metric: v, p95: col.RespQuantile(p, id, 0.95)}
		if ok {
			c.met = col.Class(id).Goal.Met(v)
		}
		return c
	})
}

// outcome accumulates the simulated results of one pass over a
// workload's schedule.
type outcome struct {
	cells, met       int
	velSum           float64
	velCells         int
	oltpRTSum        float64 // completion-weighted
	oltpDone         int
	oltpP95          []float64 // per measurable period
	completed        int
	failed, pending  int
	intercepted      uint64
	retried, timeout uint64
	evacuated        uint64
	aborts           uint64
}

func (o *outcome) add(res *experiment.MixedResult) {
	last := res.Periods - 1
	for i, c := range res.Classes {
		for p := 0; p < res.Periods; p++ {
			o.completed += res.Completed[i][p]
			if !res.Measurable[i][p] {
				continue
			}
			o.cells++
			if res.GoalMet[i][p] {
				o.met++
			}
			switch c.Kind {
			case workload.OLAP:
				o.velSum += res.Metric[i][p]
				o.velCells++
			case workload.OLTP:
				n := res.Completed[i][p]
				o.oltpRTSum += res.Metric[i][p] * float64(n)
				o.oltpDone += n
				o.oltpP95 = append(o.oltpP95, res.RespP95[i][p])
			}
		}
		o.pending += res.Pending[i][last]
	}
	ps := res.PatStats
	o.failed += int(ps.Exhausted)
	o.intercepted += ps.Intercepted
	o.retried += ps.Retried
	o.timeout += ps.TimedOut
	o.evacuated += ps.Evacuated
	o.aborts += res.Faults.Aborts
}

// simMetrics returns the simulated end-to-end metrics of a pass.
func (o *outcome) simMetrics() map[string]float64 {
	return map[string]float64{
		"slo_attainment":  ratio(float64(o.met), float64(o.cells)),
		"olap_velocity":   ratio(o.velSum, float64(o.velCells)),
		"oltp_rt_ms":      1000 * ratio(o.oltpRTSum, float64(o.oltpDone)),
		"delivered_ratio": ratio(float64(o.completed), float64(o.completed+o.failed+o.pending)),
	}
}

// oltpTailMS is the median over measurable periods of each period's p95
// OLTP response time, in milliseconds. It is printed beside the metrics,
// not gated: the collector estimates each period's p95 from a 512-sample
// reservoir, and a few heavy periods per seed move it by a third
// between seeds.
func (o *outcome) oltpTailMS() float64 { return 1000 * median(o.oltpP95) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// checkResult applies the structural checks every pass must pass
// before its digest is compared.
func checkResult(res *experiment.MixedResult) error {
	if err := res.Validate(); err != nil {
		return err
	}
	if res.ExportErr != nil {
		return fmt.Errorf("export: %w", res.ExportErr)
	}
	if res.Crashed {
		return fmt.Errorf("run crashed")
	}
	done := 0
	for _, row := range res.Completed {
		for _, n := range row {
			done += n
		}
	}
	if done == 0 {
		return fmt.Errorf("no query completed")
	}
	return nil
}
