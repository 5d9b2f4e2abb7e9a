// Benchmarks regenerating every table and figure in the paper's
// evaluation section, plus micro-benchmarks of the core components. The
// ablations of the design decisions called out in DESIGN.md run as
// `go run ./cmd/qsim -exp ablations`.
//
// Run a single figure with, e.g.:
//
//	go test -bench=BenchmarkFig6 -benchtime=1x
//
// Each experiment bench reports domain metrics (goal satisfaction, mean
// response times) via b.ReportMetric, so the paper's headline numbers
// appear directly in the benchmark output. The printed tables themselves
// come from cmd/qsim.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/utility"
	"repro/internal/workload"
)

// reportMixed attaches per-class goal satisfaction to the benchmark line.
func reportMixed(b *testing.B, res *experiment.MixedResult) {
	b.Helper()
	b.ReportMetric(res.Satisfaction[0], "class1-goal%")
	b.ReportMetric(res.Satisfaction[1], "class2-goal%")
	b.ReportMetric(res.Satisfaction[2], "class3-goal%")
	// Mean OLTP response time over the heavy periods (the paper's
	// stress case: periods 3, 6, 9, 12, 15, 18).
	var sum float64
	var n int
	for p := 2; p < res.Periods; p += 3 {
		if res.Measurable[2][p] {
			sum += res.Metric[2][p]
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n)*1000, "oltp-heavy-ms")
	}
}

// BenchmarkSystemCostLimit regenerates the calibration curve (throughput
// vs. system cost limit) that motivates the 30,000-timeron operating
// point (paper Section 2 / ref [4]).
func BenchmarkSystemCostLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultSaturationConfig()
		points := experiment.RunSaturation(cfg)
		// Report the plateau throughput at the chosen operating point.
		for _, p := range points {
			if p.Limit == experiment.SystemCostLimit {
				b.ReportMetric(p.QueriesPerHour, "queries/hour@30k")
			}
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: OLTP average response time vs. the
// OLAP cost limit for the paper's four client mixes.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiment.RunFig2(experiment.DefaultFig2Config())
		// Report the dynamic range of the (30 OLTP, 8 OLAP) curve.
		for _, c := range curves {
			if c.OLTPClients == 30 && c.OLAPClients == 8 {
				b.ReportMetric(c.MeanRT[0]*1000, "rt-low-limit-ms")
				b.ReportMetric(c.MeanRT[len(c.MeanRT)-1]*1000, "rt-high-limit-ms")
			}
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: the mixed workload with no class
// control (system cost limit only).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.NoControl))
		reportMixed(b, res)
	}
}

// BenchmarkFig5 regenerates Figure 5: static DB2 QP control with class
// priorities.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QPPriority))
		reportMixed(b, res)
	}
}

// BenchmarkFig5NoPriority runs the paper's QP-without-priority variant,
// which the paper reports as indistinguishable from no control.
func BenchmarkFig5NoPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QPNoPriority))
		reportMixed(b, res)
	}
}

// BenchmarkFig6 regenerates Figure 6: dynamic Query Scheduler control.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QueryScheduler))
		reportMixed(b, res)
	}
}

// BenchmarkFig7 regenerates Figure 7: the per-period class cost limits
// chosen by the Query Scheduler (same run as Figure 6; reported here as
// the OLTP class's share in heavy vs. light periods).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QueryScheduler))
		oltp := res.CostLimits[2]
		var heavy, light float64
		for p := 0; p < res.Periods; p += 3 {
			light += oltp[p] / 6
		}
		for p := 2; p < res.Periods; p += 3 {
			heavy += oltp[p] / 6
		}
		b.ReportMetric(heavy, "oltp-limit-heavy")
		b.ReportMetric(light, "oltp-limit-light")
	}
}

// BenchmarkInterceptionOverhead regenerates the Section 3 argument: the
// per-query interception cost dwarfs sub-second OLTP execution, so the
// OLTP class must be controlled indirectly.
func BenchmarkInterceptionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunInterceptionOverhead(20, 0.025, 1, 1)
		b.ReportMetric(res.DirectMeanRT/res.UnmanagedMeanRT, "slowdown-x")
	}
}

// BenchmarkDetection regenerates the workload-detection accuracy scores
// (E10): precision/recall of the CUSUM shift detector against the true
// Figure 3 period boundaries.
func BenchmarkDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiment.RunDetection(experiment.DefaultDetectionConfig())
		var matched, detected, truth int
		for _, r := range results {
			matched += r.Matched
			detected += r.Detected
			truth += r.TrueShifts
		}
		if detected > 0 {
			b.ReportMetric(float64(matched)/float64(detected), "precision")
		}
		if truth > 0 {
			b.ReportMetric(float64(matched)/float64(truth), "recall")
		}
	}
}

// BenchmarkDirectControl regenerates the future-work comparison (E9):
// indirect admission control vs. direct in-DBMS weighted sharing of the
// OLTP class under sustained peak load.
func BenchmarkDirectControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiment.RunDirectControl(experiment.DefaultDirectControlConfig())
		for _, r := range results {
			switch r.Strategy {
			case "indirect (QS admission)":
				b.ReportMetric(r.OLTPMeanRT*1000, "indirect-rt-ms")
			case "direct (in-DBMS shares)":
				b.ReportMetric(r.OLTPMeanRT*1000, "direct-rt-ms")
				b.ReportMetric(r.OLAPPerHour, "direct-olap-qph")
			}
		}
	}
}

// --- Sweep-level benchmarks of the parallel experiment layer ---

// benchSaturationConfig is a scaled-down saturation sweep (8 limits,
// 10-minute windows) sized so serial-vs-parallel wall-clock is measurable
// in one benchtime=1x run.
func benchSaturationConfig(parallel int) experiment.SaturationConfig {
	var limits []float64
	for l := 4000.0; l <= 32000; l += 4000 {
		limits = append(limits, l)
	}
	return experiment.SaturationConfig{
		Limits: limits, OLAPClients: 12, Window: 600, Seed: 1, Parallel: parallel,
	}
}

// BenchmarkSaturationSweep measures the same sweep serially and fanned
// across the worker pool; on an N-core machine the parallel variants
// should approach N-times speedup (each swept limit is an independent
// simulation). Compare with:
//
//	go test -bench=BenchmarkSaturationSweep -benchtime=2x
func BenchmarkSaturationSweep(b *testing.B) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.RunSaturation(benchSaturationConfig(workers))
			}
		})
	}
}

// BenchmarkReplicatedSweep measures multi-seed replication throughput via
// the worker pool (the "tighter confidence intervals" enabler).
func BenchmarkReplicatedSweep(b *testing.B) {
	sched := workload.PaperSchedule()
	seeds := experiment.DefaultSeeds(4)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.RunReplicated(experiment.NoControl, sched, seeds, workers)
			}
		})
	}
}

// BenchmarkFaultMatrixQuick runs the CI-sized fault matrix (five fault
// scenarios x mitigations off/on, one-hour schedule each) on the worker
// pool — the end-to-end cost of the fault-injection and mitigation layer.
func BenchmarkFaultMatrixQuick(b *testing.B) {
	cfg := experiment.QuickFaultMatrixConfig()
	cfg.Parallel = 4
	for i := 0; i < b.N; i++ {
		cells := experiment.RunFaultMatrix(cfg)
		var retried uint64
		for _, c := range cells {
			retried += c.Retried
		}
		b.ReportMetric(float64(retried), "retries")
	}
}

// BenchmarkCheckpointOverhead measures the cost of crash-consistent
// checkpointing on the paper's Query Scheduler run: the same simulation
// with checkpoints off, at every 100th control boundary (the recommended
// cadence — expected well under 5% overhead), and at every boundary (the
// worst case). Compare with:
//
//	go test -bench=BenchmarkCheckpointOverhead -benchtime=3x
func BenchmarkCheckpointOverhead(b *testing.B) {
	for _, every := range []int{0, 100, 1} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			dir := b.TempDir()
			cfg := experiment.DefaultMixedConfig(experiment.QueryScheduler)
			if every > 0 {
				cfg.CheckpointEvery = every
				cfg.CheckpointDir = dir
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := experiment.RunMixed(cfg)
				reportMixed(b, res)
			}
		})
	}
}

// --- Micro-benchmarks of the components themselves ---

// BenchmarkClockThroughput measures the simclock kernel's event hot path:
// one self-rescheduling event per iteration (schedule + heap push + pop +
// fire), the pattern every client arrival and completion follows. The
// events/sec metric and allocs/op are the before/after numbers CHANGES.md
// records.
func BenchmarkClockThroughput(b *testing.B) {
	clock := simclock.New()
	var tick func()
	tick = func() { clock.After(1, tick) }
	clock.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		clock.Step()
	}
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)/d, "events/sec")
	}
}

// BenchmarkClockDeepQueue is BenchmarkClockThroughput with 1024 pending
// events, so sift costs at realistic queue depths are visible.
func BenchmarkClockDeepQueue(b *testing.B) {
	clock := simclock.New()
	var tick func()
	tick = func() { clock.After(1+float64(clock.Pending()%7), tick) }
	for i := 0; i < 1024; i++ {
		clock.After(float64(i%13)+1, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Step()
	}
}

// BenchmarkClockCancelChurn measures the cancellable path: arm + cancel +
// re-arm, the engine's completion-event pattern.
func BenchmarkClockCancelChurn(b *testing.B) {
	clock := simclock.New()
	fn := func() {}
	// Background events so cancellation sifts against a non-trivial heap.
	for i := 0; i < 256; i++ {
		clock.At(float64(1+i%9), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := clock.AfterCancellable(0.5, fn)
		clock.Cancel(id)
	}
}

// BenchmarkClockRearmFiring measures the engine's completion pattern: a
// cancellable event that re-arms itself from its own callback, over a
// background of 16 self-rescheduling events with periods of 8 to 23 s.
// An op runs the clock until the completion event has fired once; the
// background events that fall due meanwhile fire too, and events/op
// counts both. The firing event stays at the heap root while its
// callback runs, so the re-arm is one sift; the alloc budget pins 0 B/op.
func BenchmarkClockRearmFiring(b *testing.B) {
	clock := simclock.New()
	fired := 0
	for k := 0; k < 16; k++ {
		period := float64(8 + k)
		var tick func()
		tick = func() {
			fired++
			clock.After(period, tick)
		}
		clock.After(period, tick)
	}
	var id simclock.EventID
	done := false
	var complete func()
	complete = func() {
		fired++
		done = true
		id = clock.Rearm(id, 1, complete)
	}
	id = clock.AfterCancellable(1, complete)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for done = false; !done; {
			clock.Step()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// BenchmarkEngineHotPath measures the engine's submit→reschedule→complete
// cycle including the clock kernel underneath — the inner loop of every
// experiment. allocs/op is the headline: the value-heap kernel, the
// hoisted completion closure, pooled queries and the slot slice keep
// the steady state at 0 B/op, which the alloc budget pins.
func BenchmarkEngineHotPath(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)
	var submit func(engine.ClientID)
	submit = func(c engine.ClientID) {
		q := eng.AcquireQuery()
		q.Client = c
		q.Demand = engine.Demand{Work: 0.01, CPURate: 1, IORate: 0.2}
		eng.Submit(q)
	}
	eng.OnDone(func(q *engine.Query) { submit(q.Client) })
	for c := engine.ClientID(0); c < 20; c++ {
		submit(c)
	}
	// An untimed warm-up grows the query pool and the engine's scratch,
	// so even -benchtime=1x (the alloc budget's setting) reads the
	// steady state.
	for i := 0; i < 100; i++ {
		clock.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Step()
	}
}

// BenchmarkEngineMixedDemand measures the engine's event loop under a
// mixed load, unlike EngineHotPath, whose identical queries finish
// together in one cascade and so never pay a per-event rate pass. 24
// pooled clients resubmit on completion with exponentially distributed
// work: a third CPU-heavy, a third I/O-heavy and a third pure I/O, so
// completions arrive one at a time, both stations are oversubscribed
// and the executing set spans two station masks. An untimed warm-up
// grows the query pool and the engine's scratch, so the alloc budget's
// -benchtime=1x reads the steady state. slots/event is the mean size of
// the executing set an event's passes walk.
func BenchmarkEngineMixedDemand(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)
	src := rng.New(1)
	demands := [3]engine.Demand{
		{CPURate: 1, IORate: 0.2},
		{CPURate: 0.1, IORate: 1.2},
		{IORate: 0.8},
	}
	submit := func(c engine.ClientID) {
		q := eng.AcquireQuery()
		q.Client = c
		q.Demand = demands[c%3]
		q.Demand.Work = src.Exp(0.05)
		eng.Submit(q)
	}
	eng.OnDone(func(q *engine.Query) { submit(q.Client) })
	for c := engine.ClientID(0); c < 24; c++ {
		submit(c)
	}
	for i := 0; i < 1000; i++ {
		clock.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	slots := 0
	for i := 0; i < b.N; i++ {
		slots += eng.Active()
		clock.Step()
	}
	b.ReportMetric(float64(slots)/float64(b.N), "slots/event")
}

// BenchmarkEngineThroughput measures simulated-query completions per
// wall-clock second of the discrete-event engine.
func BenchmarkEngineThroughput(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)
	var submit func(engine.ClientID)
	submit = func(c engine.ClientID) {
		eng.Submit(&engine.Query{
			Client: c,
			Demand: engine.Demand{Work: 0.01, CPURate: 1, IORate: 0.2},
		})
	}
	eng.OnDone(func(q *engine.Query) { submit(q.Client) })
	for c := engine.ClientID(0); c < 20; c++ {
		submit(c)
	}
	b.ResetTimer()
	done := eng.Stats().Completed
	for i := 0; i < b.N; i++ {
		clock.RunUntil(clock.Now() + 1)
	}
	b.ReportMetric(float64(eng.Stats().Completed-done)/float64(b.N), "completions/op")
}

// BenchmarkSolverGreedy measures one planning cycle with the production
// solver over the paper's three classes.
func BenchmarkSolverGreedy(b *testing.B) {
	benchSolver(b, solver.Greedy{})
}

// BenchmarkSolverGrid measures one planning cycle with the exhaustive
// grid solver.
func BenchmarkSolverGrid(b *testing.B) {
	benchSolver(b, solver.Grid{})
}

func benchSolver(b *testing.B, s solver.Solver) {
	p := solver.Problem{
		Total: 30000,
		Step:  500,
		Classes: []solver.ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.4, 1), Min: 500,
				Predict: func(l float64) float64 { return min(1, 0.7*l/10000) }},
			{ID: 2, Utility: utility.NewVelocity(0.6, 2), Min: 500,
				Predict: func(l float64) float64 { return min(1, 0.8*l/12000) }},
			{ID: 3, Utility: utility.NewResponseTime(0.25, 3),
				Predict: func(l float64) float64 { return max(0.05, 0.35-5e-6*l) }},
		},
	}
	start := solver.Plan{10000, 10000, 10000}
	// The garbage collection that starts every benchmark run wakes the
	// runtime's background scavenger, and the first time it sleeps on a
	// processor it grows that processor's timer heap by 16 B. With a
	// second processor free, that allocation can land inside a timed
	// solve of ~150 µs, which then reads 64 B instead of the solver's 48
	// B (at -benchtime=1x, about one run in two). One processor while the
	// timer runs keeps background work off the timed op.
	prev := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(p, start)
	}
	b.StopTimer()
	runtime.GOMAXPROCS(prev)
}

// BenchmarkWorkloadGenerate measures one OLAP query draw, the workload's
// share of every submitted query: template, instance size and optimizer
// estimate, written straight into the fields a query carries. draws/op
// counts the rng's 64-bit outputs per draw (its state is a counter, so
// the count is exact); the alloc budget pins 0 B/op.
func BenchmarkWorkloadGenerate(b *testing.B) {
	opt := optimizer.New(optimizer.DefaultModel(), workload.TPCHCatalog())
	set := workload.NewSet(opt, workload.TPCHTemplates())
	src := rng.New(1)
	var q engine.Query
	b.ReportAllocs()
	b.ResetTimer()
	start := src.State()
	for i := 0; i < b.N; i++ {
		q.Template, q.Cost, q.Demand = set.Generate(src)
	}
	b.StopTimer()
	b.ReportMetric(float64(rngDraws(start, src.State()))/float64(b.N), "draws/op")
	generatedQuery = q
}

// generatedQuery keeps BenchmarkWorkloadGenerate's draws live.
var generatedQuery engine.Query

// rngDraws counts the 64-bit outputs an rng.Source made between two
// cursors. The cursor advances by splitmix64's odd increment per output,
// so the count is the cursor difference times the increment's inverse
// modulo 2^64 (Newton's iteration; each step doubles the correct low
// bits, from 3).
func rngDraws(from, to uint64) uint64 {
	const inc = 0x9e3779b97f4a7c15
	inv := uint64(inc)
	for i := 0; i < 5; i++ {
		inv *= 2 - inc*inv
	}
	return (to - from) * inv
}

// BenchmarkOptimizerCost measures plan costing against the catalog.
func BenchmarkOptimizerCost(b *testing.B) {
	opt := optimizer.New(optimizer.DefaultModel(), workload.TPCHCatalog())
	plans := workload.TPCHTemplates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Cost(plans[i%len(plans)].Plan)
	}
}

// BenchmarkPatrollerChurn measures intercept/release/complete cycles.
// Queries come from the engine's freelist and the policy (SystemLimit's
// rule) reuses its release slice, so a warm patroller allocates 0 per
// op: its entries are pooled and it keeps no row past a query's end. The
// untimed warm-up fills the freelists, maps and clock tables, so even
// -benchtime=1x (the alloc budget's setting) reads the steady state.
func BenchmarkPatrollerChurn(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 1000, IOCapacity: 1000}, clock)
	pat := patroller.New(eng, 1)
	var out []engine.QueryID
	pat.SetPolicy(patroller.PolicyFunc(func(v *patroller.View) []engine.QueryID {
		out = out[:0]
		budget := 1000 - v.ActiveCost()
		for _, qi := range v.Held {
			if qi.Cost <= budget {
				budget -= qi.Cost
				out = append(out, qi.ID)
			}
		}
		return out
	}))
	churn := func() {
		q := eng.AcquireQuery()
		q.Class = 1
		q.Cost = 100
		q.Demand = engine.Demand{Work: 0.001, CPURate: 1}
		eng.Submit(q)
		clock.RunUntil(clock.Now() + 0.01)
	}
	for i := 0; i < 1000; i++ {
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// BenchmarkRouterRoute measures the routing tier's per-query decision:
// score three heterogeneous backends with the default policy, pick the
// argmax, and submit to the chosen engine, with engine churn underneath
// so the queue/load signals stay live. allocs/op is the headline: the
// query comes from the fleet's one freelist and the scoring and argmax
// add nothing, so a warm router allocates 0 per op. The untimed warm-up
// fills the freelist and the clock's tables, so even -benchtime=1x
// (the alloc budget's setting) reads the steady state.
func BenchmarkRouterRoute(b *testing.B) {
	clock := simclock.New()
	specs := experiment.RoutingBackends()
	roster := make([]backend.Backend, len(specs))
	for i, spec := range specs {
		roster[i] = backend.New(i+1, spec, clock)
	}
	rt := router.New(roster, router.DefaultScorers())
	route := func(i int) {
		q := rt.AcquireQuery()
		q.Class = engine.ClassID(1 + i%3)
		q.Cost = 100
		q.Demand = engine.Demand{Work: 0.001, CPURate: 1, IORate: 0.2}
		rt.Submit(q)
		clock.RunUntil(clock.Now() + 0.01)
	}
	for i := 0; i < 1000; i++ {
		route(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route(i)
	}
}

// countingDiscard is a writer that counts what it is given and keeps
// none of it, so a trace benchmark measures the encoder, not a disk.
type countingDiscard struct{ bytes, writes int64 }

func (w *countingDiscard) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.writes++
	return len(p), nil
}

// BenchmarkTraceEmit measures the tracer's steady state in a run's event
// order: each op is one turn of a closed-loop client, whose new query's
// submit and start are followed by its previous query's done, all at the
// instant the previous query finished, through Emit into batches encoded
// for a counting discard writer. Templates come from a small shared set,
// and each query has its own cost, so as in a run its value is formatted
// once and then served from the encoder's memo. The untimed warm-up
// grows the batch and the encoder's buffers, so even -benchtime=1x (the
// alloc budget's setting) reads the steady state, which allocates
// nothing.
func BenchmarkTraceEmit(b *testing.B) {
	var sink countingDiscard
	tr := trace.New()
	if err := tr.StreamJSONL(&sink, trace.Meta{Experiment: "bench"}); err != nil {
		b.Fatal(err)
	}
	const clients = 40
	templates := []string{"Q1", "Q3", "Q6", "Q7", "Q12", "Q14", "Q19"}
	var last [clients]struct {
		q    engine.QueryID
		cost float64
		at   simclock.Time
	}
	emit := func(i int) {
		c := engine.ClientID(i % clients)
		at := simclock.Time(i)*0.25 + simclock.Time(i%97)*1e-4
		q, cost := engine.QueryID(i+1), 120+float64(i)*0.7071
		tmpl := templates[i*5%len(templates)]
		tr.Emit(trace.Event{Time: at, Kind: trace.QuerySubmit, Class: 3, Query: q, Client: c, Value: cost, Detail: tmpl})
		tr.Emit(trace.Event{Time: at, Kind: trace.QueryStart, Class: 3, Query: q, Client: c, Value: cost, Detail: tmpl})
		if p := &last[c]; p.q != 0 {
			rt := float64(at - p.at)
			tr.Emit(trace.Event{Time: at, Kind: trace.QueryDone, Class: 3, Query: p.q, Client: c, Value: p.cost,
				Num: [2]float64{rt, rt}})
		}
		last[c].q, last[c].cost, last[c].at = q, cost, at
	}
	for i := 0; i < 4096; i++ {
		emit(i)
	}
	tr.Flush()
	events, bytes := tr.Total(), sink.bytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(4096 + i)
	}
	tr.Flush()
	b.StopTimer()
	if err := tr.SinkErr(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(tr.Total()-events)/float64(b.N), "events/op")
	b.ReportMetric(float64(sink.bytes-bytes)/float64(b.N), "trace-B/op")
}

// BenchmarkRoutingFleet regenerates E14: the heterogeneous three-backend
// fleet under the routing tier and the hierarchical budget split. The
// reported share metrics are the router's verdict — the slow backend
// should hold well under a fair third of the routed queries.
func BenchmarkRoutingFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunFleet(experiment.RoutingMixedConfig())
		var total int64
		for _, n := range res.Routed {
			total += n
		}
		if total > 0 {
			b.ReportMetric(100*float64(res.Routed[0])/float64(total), "fast1-share%")
			b.ReportMetric(100*float64(res.Routed[2])/float64(total), "slow-share%")
		}
	}
}

// BenchmarkFleetFailover regenerates E15 (quick shape): three arms of
// the backend-crash drill — healthy baseline, failover + migration, and
// mitigation-off. The reported metrics are the acceptance verdict: the
// mitigated arm's critical-class retention vs baseline (bar: >= 90%)
// and the collapse of the unmitigated black-hole arm.
func BenchmarkFleetFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.RunFailover(experiment.FailoverConfig{Seed: 1, Quick: true})
		b.ReportMetric(100*r.Baseline.Attainment, "baseline-attain%")
		b.ReportMetric(100*r.Retention(r.Failover), "retention%")
		b.ReportMetric(100*r.NoMitig.Attainment, "nomitig-attain%")
	}
}

// BenchmarkMillionClients drives one million distinct clients through a
// 24-sim-hour closed-loop OLTP run. A 25-client cohort rotates through
// the population every ~2.2 sim-seconds via SetActiveWindow, so every
// client in turn materializes, submits queries, and parks back to its
// 8-byte rng cursor. Only the live cohort exists as Client objects; the
// rest of the population costs its cursor slice.
func BenchmarkMillionClients(b *testing.B) {
	const (
		population = 1_000_000
		cohort     = 25
		simHours   = 24
	)
	slices := population / cohort
	span := simHours * 3600.0 / float64(slices)
	oltp := workload.PaperClasses()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := simclock.New()
		eng := engine.New(engine.DefaultConfig(), clock)
		opt := optimizer.New(optimizer.DefaultModel(), workload.TPCCCatalog())
		set := workload.NewSet(opt, workload.TPCCTemplates())
		pool := workload.NewPool(eng)
		pool.AddClients(oltp, set, population, rng.New(7))
		for s := 0; s < slices; s++ {
			lo := s * cohort
			pool.SetActiveWindow(oltp.ID, lo, lo+cohort)
			clock.RunUntil(simclock.Time(s+1) * span)
		}
		// Drain: park the final cohort once its in-flight work completes.
		pool.SetActiveWindow(oltp.ID, population, population)
		clock.RunUntil(clock.Now() + 60)
		b.ReportMetric(float64(eng.Stats().Completed), "completions")
		b.ReportMetric(float64(pool.ActiveCount(oltp.ID)), "live-clients")
	}
}
