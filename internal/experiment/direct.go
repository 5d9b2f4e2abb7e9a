// E9: the paper's future-work comparison — indirect OLTP control (the
// Query Scheduler squeezing OLAP admission) versus direct control inside
// the DBMS (weighted fair sharing driven by the wlm controller), and the
// two combined, under sustained heavy mixed load.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/wlm"
)

// DirectControlResult is one strategy's steady-state outcome.
type DirectControlResult struct {
	Strategy      string
	OLTPMeanRT    float64
	OLTPP95RT     float64
	OLTPGoalMet   bool
	OLAPVelocity  float64 // mean of completions across both OLAP classes
	OLAPPerHour   float64
	OLTPPerSecond float64
	// FinalOLTPShare is the OLTP class's final control setting: virtual
	// cost limit (indirect) or sharing weight (direct); 0 when unused.
	FinalOLTPShare float64
}

// DirectControlConfig tunes E9.
type DirectControlConfig struct {
	OLTPClients int
	OLAPClients int // per OLAP class
	Window      float64
	Seed        uint64
	// Parallel is the worker count for the strategy comparison:
	// 0 = GOMAXPROCS, 1 = serial.
	Parallel int
}

// DefaultDirectControlConfig uses the paper's heaviest intensity.
func DefaultDirectControlConfig() DirectControlConfig {
	return DirectControlConfig{OLTPClients: 25, OLAPClients: 4, Window: 4800, Seed: 1}
}

// RunDirectControl compares four strategies on the same heavy mixed load:
// no class control, indirect (Query Scheduler), direct (in-DBMS weighted
// sharing), and indirect+direct combined.
func RunDirectControl(cfg DirectControlConfig) []DirectControlResult {
	type strategy struct {
		name     string
		indirect bool
		direct   bool
	}
	strategies := []strategy{
		{"no-control", false, false},
		{"indirect (QS admission)", true, false},
		{"direct (in-DBMS shares)", false, true},
		{"indirect + direct", true, true},
	}

	return Map(cfg.Parallel, strategies, func(s strategy, _ int) DirectControlResult {
		sched := ConstantSchedule(cfg.Window, cfg.Window, map[engine.ClassID]int{
			1: cfg.OLAPClients, 2: cfg.OLAPClients, 3: cfg.OLTPClients,
		})
		rig := NewRig(cfg.Seed, sched)
		oltp := rig.OLTPClass()

		mode := NoControl
		if s.indirect {
			mode = QueryScheduler
		}
		rig.AttachController(mode, nil)
		qs := rig.QS

		var direct *wlm.Controller
		if s.direct {
			var err error
			var buf []engine.ClientID // the controller consumes each poll synchronously
			direct, err = wlm.New(wlm.DefaultConfig(), rig.Eng, oltp.ID, oltp.Goal.Target,
				func() []engine.ClientID {
					buf = rig.Pool.AppendActiveClients(buf[:0], oltp.ID)
					return buf
				})
			if err != nil {
				panic(err)
			}
			direct.Start()
		}

		rig.Run()

		oltpAgg := rig.Collector.Agg(1, oltp.ID)
		var velSum float64
		var velN int
		var olapDone int
		for _, id := range rig.OLAPClassIDs() {
			agg := rig.Collector.Agg(1, id)
			if agg.Completed > 0 {
				velSum += agg.Velocity.Mean() * float64(agg.Completed)
				velN += agg.Completed
			}
			olapDone += agg.Completed
		}
		res := DirectControlResult{
			Strategy:      s.name,
			OLTPMeanRT:    oltpAgg.Resp.Mean(),
			OLTPP95RT:     rig.Collector.RespQuantile(1, oltp.ID, 0.95),
			OLTPGoalMet:   oltp.Goal.Met(oltpAgg.Resp.Mean()),
			OLAPPerHour:   float64(olapDone) / cfg.Window * 3600,
			OLTPPerSecond: float64(oltpAgg.Completed) / cfg.Window,
		}
		if velN > 0 {
			res.OLAPVelocity = velSum / float64(velN)
		}
		switch {
		case s.direct:
			res.FinalOLTPShare = direct.Weight()
		case qs != nil:
			res.FinalOLTPShare, _ = qs.CostLimit(oltp.ID)
		}
		return res
	})
}

// WriteDirectControl renders the E9 comparison.
func WriteDirectControl(w io.Writer, cfg DirectControlConfig, results []DirectControlResult) {
	fmt.Fprintf(w, "Direct vs. indirect OLTP control (%d OLTP + 2x%d OLAP clients, goal 0.25s)\n",
		cfg.OLTPClients, cfg.OLAPClients)
	fmt.Fprintf(w, "%-26s %12s %9s %6s %10s %10s %10s\n",
		"strategy", "OLTP RT(ms)", "p95(ms)", "goal", "OLAP vel", "OLAP q/h", "OLTP tx/s")
	for _, r := range results {
		goal := "miss"
		if r.OLTPGoalMet {
			goal = "met"
		}
		fmt.Fprintf(w, "%-26s %12.0f %9.0f %6s %10.3f %10.0f %10.0f\n",
			r.Strategy, r.OLTPMeanRT*1000, r.OLTPP95RT*1000, goal,
			r.OLAPVelocity, r.OLAPPerHour, r.OLTPPerSecond)
	}
}
