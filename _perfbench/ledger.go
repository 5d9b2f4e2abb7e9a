package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/patroller"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/workload"
)

var perLayerMetrics = []metricDef{
	{"simclock.events", "count", "lower"},
	{"simclock.events_per_query", "count", "lower"},
	{"simclock.cpu_ns_per_event", "ns", "lower"},
	{"engine.cpu_ns_per_query", "ns", "lower"},
	{"engine.submitted", "count", "higher"},
	{"engine.completed", "count", "higher"},
	{"engine.aborted", "count", "lower"},
	{"workload.setup_us", "us", "lower"},
	{"patroller.marginal_cpu_ns_per_query", "ns", "lower"},
	{"patroller.intercepted", "count", "lower"},
	{"patroller.wait_s_per_query", "s", "lower"},
	{"patroller.retried", "count", "lower"},
	{"patroller.timed_out", "count", "lower"},
	{"patroller.evacuated", "count", "lower"},
	{"patroller.retry_ratio", "ratio", "lower"},
	{"core.marginal_cpu_ns_per_query", "ns", "lower"},
	{"core.control_ticks", "count", "lower"},
	{"core.dispatch_calls", "count", "lower"},
	{"core.dispatch_ns_per_call", "ns", "lower"},
	{"core.dispatch_share", "ratio", "lower"},
	{"core.setup_us", "us", "lower"},
	{"solver.calls", "count", "lower"},
	{"solver.us_per_solve", "us", "lower"},
	{"solver.share", "ratio", "lower"},
	{"obs.marginal_cpu_ns_per_query", "ns", "lower"},
	{"obs.exposition_bytes", "B", "lower"},
	{"trace.marginal_cpu_ns_per_query", "ns", "lower"},
	{"trace.marginal_bytes_per_query", "B", "lower"},
	{"trace.marginal_allocs_per_query", "count", "lower"},
	{"trace.events", "count", "lower"},
	{"trace.bytes_per_query", "B", "lower"},
	{"trace.sink_writes", "count", "lower"},
	{"decisionlog.marginal_cpu_ns_per_query", "ns", "lower"},
	{"decisionlog.records", "count", "lower"},
	{"decisionlog.bytes", "B", "lower"},
	{"decisionlog.us_per_note", "us", "lower"},
	{"checkpoint.marginal_cpu_ns_per_query", "ns", "lower"},
	{"checkpoint.files", "count", "lower"},
	{"checkpoint.bytes_per_file", "B", "lower"},
	{"checkpoint.ms_per_write", "ms", "lower"},
	{"router.routed", "count", "higher"},
	{"router.rerouted", "count", "lower"},
	{"router.reroute_ratio", "ratio", "lower"},
	{"router.ns_per_route", "ns", "lower"},
	{"router.bytes_per_route", "B", "lower"},
	{"router.allocs_per_route", "count", "lower"},
	{"router.planner_ticks", "count", "lower"},
	{"router.migrations", "count", "lower"},
	{"router.sheds", "count", "lower"},
	{"backend.max_routed_share", "ratio", "lower"},
	{"backend.down_s", "s", "lower"},
	{"fault.injected", "count", "lower"},
	{"ledger.overhead_ns_per_query", "ns", "lower"},
}

// rung is one step of the cumulative ladder. Each rung adds one layer to
// the one before; the difference in per-query cost between adjacent
// rungs is the added layer's marginal cost.
type rung struct {
	name  string
	layer string // the layer this rung adds
	run   func(seed uint64, sched workload.Schedule, dir string) rungRun
}

// rungRun is what one execution of a rung measured.
type rungRun struct {
	cpuNS     int64
	heap      heap
	completed int
	digest    uint64
	events    int64 // clock events, for rungs driven by a Step loop
	ticks     int   // control ticks, for Query Scheduler rungs
	extra     map[string]float64
	err       error
}

func (r rungRun) perQuery() (cpu, bytes, allocs float64) {
	n := float64(r.completed)
	return float64(r.cpuNS) / n, float64(r.heap.bytes) / n, float64(r.heap.objects) / n
}

var ladder = []rung{
	{"bare", "engine", func(seed uint64, sched workload.Schedule, _ string) rungRun {
		return runRig(seed, sched, nil)
	}},
	{"+patroller", "patroller", func(seed uint64, sched workload.Schedule, _ string) rungRun {
		return runRig(seed, sched, func(rig *experiment.Rig) { rig.AttachController(experiment.NoControl, nil) })
	}},
	{"+core", "core", func(seed uint64, sched workload.Schedule, _ string) rungRun {
		return runRig(seed, sched, func(rig *experiment.Rig) { rig.AttachController(experiment.QueryScheduler, nil) })
	}},
	{"+obs", "obs", func(seed uint64, sched workload.Schedule, _ string) rungRun {
		var m lineCounter
		return runMixedRung(experiment.MixedConfig{Metrics: &m}, seed, sched, func(r *rungRun) {
			r.extra = map[string]float64{"obs.exposition_bytes": float64(m.bytes)}
		})
	}},
	{"+trace", "trace", func(seed uint64, sched workload.Schedule, _ string) rungRun {
		var m, t lineCounter
		return runMixedRung(experiment.MixedConfig{Metrics: &m, Trace: &t}, seed, sched, func(r *rungRun) {
			r.extra = map[string]float64{
				"trace.events":      float64(t.lines - 1), // minus the meta line
				"trace.sink_writes": float64(t.writes),
				"trace.bytes":       float64(t.bytes),
			}
		})
	}},
	{"+decisionlog", "decisionlog", func(seed uint64, sched workload.Schedule, _ string) rungRun {
		var m, t, d lineCounter
		return runMixedRung(experiment.MixedConfig{Metrics: &m, Trace: &t, Decisions: &d}, seed, sched, func(r *rungRun) {
			r.extra = map[string]float64{
				"decisionlog.records": float64(d.lines - 1),
				"decisionlog.bytes":   float64(d.bytes),
			}
		})
	}},
	// The checkpoint rung keeps the unwrapped default solver: the run
	// spec a checkpoint records can name only the built-in solvers.
	{"+checkpoint", "checkpoint", func(seed uint64, sched workload.Schedule, dir string) rungRun {
		var m, t, d lineCounter
		cfg := experiment.MixedConfig{Metrics: &m, Trace: &t, Decisions: &d, CheckpointEvery: 100, CheckpointDir: dir}
		return runMixedRung(cfg, seed, sched, func(r *rungRun) {
			files, size := dirFiles(dir)
			r.extra = map[string]float64{"checkpoint.files": float64(files), "checkpoint.bytes": float64(size)}
		})
	}},
}

// runRig drives a rig built with NewRig through a Step loop, so clock
// events can be counted from outside. attach wires the layers the rung
// adds; nil leaves clock, engine, clients and collector only.
func runRig(seed uint64, sched workload.Schedule, attach func(*experiment.Rig)) rungRun {
	h0 := heapNow()
	t0 := cpuNow()
	rig := experiment.NewRig(seed, sched)
	if attach != nil {
		attach(rig)
	}
	rig.Sched.Install(rig.Clock, rig.Pool, nil)
	events := stepUntil(rig.Clock, sched.Duration())
	t1 := cpuNow()
	h1 := heapNow()
	r := rungRun{cpuNS: t1 - t0, heap: heapDelta(h0, h1), events: events,
		completed: collectorCompleted(rig.Collector), digest: collectorDigest(rig.Collector)}
	if rig.QS != nil {
		r.ticks = len(rig.QS.History())
	}
	if rig.Pat != nil {
		ps := rig.Pat.Stats()
		r.extra = map[string]float64{"intercepted": float64(ps.Intercepted),
			"wait_s_per_query": ratio(ps.WaitSeconds, float64(ps.Released))}
	}
	return r
}

// runMixedRung runs the paper-qs configuration through RunMixed with the
// rung's writers set in cfg; after reads the writers once the run is over.
func runMixedRung(cfg experiment.MixedConfig, seed uint64, sched workload.Schedule, after func(*rungRun)) rungRun {
	cfg.Mode, cfg.Seed, cfg.Sched = experiment.QueryScheduler, seed, sched
	h0 := heapNow()
	t0 := cpuNow()
	res := experiment.RunMixed(cfg)
	t1 := cpuNow()
	h1 := heapNow()
	r := rungRun{cpuNS: t1 - t0, heap: heapDelta(h0, h1), completed: completedOf(res),
		ticks: len(res.PlanHistory), err: checkResult(res)}
	if r.err == nil {
		r.digest = tableDigest(res)
	}
	after(&r)
	return r
}

func heapDelta(h0, h1 heap) heap {
	return heap{bytes: h1.bytes - h0.bytes, objects: h1.objects - h0.objects}
}

// stepUntil is Clock.RunUntil as a Step loop that counts the events it
// fires.
func stepUntil(c *simclock.Clock, deadline float64) int64 {
	var n int64
	for {
		t, ok := c.NextEventTime()
		if !ok || t > deadline {
			break
		}
		c.Step()
		n++
	}
	c.RunUntil(deadline) // nothing left to fire; advances now to deadline
	return n
}

func dirFiles(dir string) (files int, size int64) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			files++
			size += info.Size()
		}
	}
	return files, size
}

// span is one timed call at a layer boundary, kept in memory during the
// traced run and written out at its end. Times are process CPU
// nanoseconds since the start of the traced pass.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type spanLog struct {
	origin int64
	spans  []span
	// ticks counts completed control ticks, so a solve can name the
	// tick it belongs to.
	ticks int
}

func (l *spanLog) add(layer, name string, t0, t1 int64) {
	l.spans = append(l.spans, span{Layer: layer, Name: name,
		Parent: fmt.Sprintf("tick-%d", l.ticks), Start: t0 - l.origin, Dur: t1 - t0})
}

func (l *spanLog) busy(layer string) (calls int, ns int64) {
	for _, s := range l.spans {
		if s.Layer == layer {
			calls++
			ns += s.Dur
		}
	}
	return calls, ns
}

// timedSolver wraps the Query Scheduler's solver (the core.Config.Solver
// seam) and records one span per Solve call.
type timedSolver struct {
	inner solver.Solver
	log   *spanLog
}

func (s timedSolver) Solve(p solver.Problem, start solver.Plan) solver.Plan {
	t0 := spanNow()
	plan := s.inner.Solve(p, start)
	s.log.add("solver", "solve", t0, spanNow())
	return plan
}

// ladderPeriods is the schedule prefix the ladder runs: the first two
// periods of the paper schedule. minRounds rounds of every rung run
// whatever --seconds says, so each rung has a median.
const (
	ladderPeriods = 2
	minRounds     = 3
)

// dispatchSampleEvery is the sampling stride of the per-query dispatch
// seam: every call is counted, one in this many is timed.
const dispatchSampleEvery = 16

// sampledPolicy wraps the scheduler's SelectReleases (the
// patroller.Policy seam). Dispatch runs on every managed arrival and
// completion, so it is kept as a count plus sampled busy time, not spans.
type sampledPolicy struct {
	inner          patroller.Policy
	calls, sampled int64
	sampledNS      int64
}

func (p *sampledPolicy) SelectReleases(v *patroller.View) []engine.QueryID {
	p.calls++
	if p.calls%dispatchSampleEvery != 0 {
		return p.inner.SelectReleases(v)
	}
	t0 := spanNow()
	ids := p.inner.SelectReleases(v)
	p.sampledNS += spanNow() - t0
	p.sampled++
	return ids
}

// seamRun is the paper-qs stack of the +core rung with every seam
// wrapped and a decision log whose Note is timed inside OnPlan.
type seamRun struct {
	rungRun
	log      spanLog
	dispatch *sampledPolicy
	dlog     lineCounter
	dlogErr  error
}

func runSeams(seed uint64, sched workload.Schedule) *seamRun {
	s := &seamRun{}
	h0 := heapNow()
	t0 := cpuNow()
	s.log.origin = spanNow()
	rig := experiment.NewRig(seed, sched)
	qc := core.DefaultConfig()
	qc.SystemCostLimit = experiment.SystemCostLimit
	qc.Solver = timedSolver{inner: qc.Solver, log: &s.log}
	rig.AttachController(experiment.QueryScheduler, &qc)
	s.dispatch = &sampledPolicy{inner: rig.QS}
	rig.Pat.SetPolicy(s.dispatch)
	dw, err := decisionlog.NewWriter(&s.dlog, decisionlog.Meta{
		Experiment:      "perfbench-ledger",
		Seed:            int64(seed),
		ControlInterval: qc.ControlInterval,
		SLOWindow:       qc.SLOWindow,
		SLOBudget:       qc.SLOBudget,
		Classes:         decisionlog.ClassesMeta(rig.Classes),
	})
	if err != nil {
		s.err = err
		return s
	}
	rig.QS.OnPlan(func(rec core.PlanRecord) {
		n0 := spanNow()
		dw.Note(rec)
		s.log.add("decisionlog", "note", n0, spanNow())
		s.log.ticks++
	})
	rig.Sched.Install(rig.Clock, rig.Pool, nil)
	s.events = stepUntil(rig.Clock, sched.Duration())
	dw.Flush()
	s.dlogErr = dw.Err()
	t1 := cpuNow()
	h1 := heapNow()
	s.cpuNS, s.heap = t1-t0, heapDelta(h0, h1)
	s.completed = collectorCompleted(rig.Collector)
	s.digest = collectorDigest(rig.Collector)
	s.ticks = len(rig.QS.History())
	return s
}

// timerCostNS estimates the cost of one spanNow pair, which every
// sampled dispatch time includes.
func timerCostNS() float64 {
	const n = 2000
	costs := make([]float64, 0, 9)
	for b := 0; b < 9; b++ {
		t0 := spanNow()
		for i := 0; i < n; i++ {
			spanNow()
		}
		costs = append(costs, float64(spanNow()-t0)/n)
	}
	return median(costs)
}

// fleetRun is the traced fleet4-faults pass: counters from FleetResult,
// its fault stats and the decision log's fleet records.
type fleetRun struct {
	res       *experiment.FleetResult
	cpuNS     int64
	digest    uint64
	events    map[string]int
	downS     float64
	rerouted  int
	metricsB  int64
	decisions bytes.Buffer
}

func runFleet(seed uint64) (*fleetRun, error) {
	w, err := workloadByName("fleet4-faults")
	if err != nil {
		return nil, err
	}
	sched := w.sched
	f := &fleetRun{events: map[string]int{}}
	var m lineCounter
	cfg := w.config(seed, sched, nil, nil)
	cfg.Metrics, cfg.Decisions = &m, &f.decisions
	t0 := cpuNow()
	f.res = experiment.RunFleet(cfg)
	f.cpuNS = cpuNow() - t0
	if err := checkResult(f.res.MixedResult); err != nil {
		return nil, fmt.Errorf("fleet pass: %w", err)
	}
	f.digest = tableDigest(f.res.MixedResult)
	f.metricsB = m.bytes
	downAt := map[int]float64{}
	err = decisionlog.ScanJSONLWithFleet(bytes.NewReader(f.decisions.Bytes()),
		func(decisionlog.Meta) error { return nil },
		func(decisionlog.Record) error { return nil },
		func(fr decisionlog.FleetRecord) error {
			f.events[fr.Event]++
			switch fr.Event {
			case "failover":
				downAt[fr.Backend] = fr.T
				f.rerouted += fr.Moved
			case "recover":
				f.downS += fr.T - downAt[fr.Backend]
				delete(downAt, fr.Backend)
			}
			return nil
		})
	for _, t := range downAt {
		f.downS += sched.Duration() - t
	}
	return f, err
}

// routeCost measures router.Submit under engine churn: the same loop of
// submissions and clock advances run once through the router and once
// straight into the engines round robin. The difference per query is
// the routing tier's cost.
func routeCost(n int) (ns, bytesPer, allocsPer float64) {
	loop := func(routed bool) (int64, heap) {
		clock := simclock.New()
		specs := backend.DefaultSpecs(fleetBackends)
		roster := make([]backend.Backend, len(specs))
		engines := make([]*engine.Engine, len(specs))
		for i, spec := range specs {
			b := backend.New(i+1, spec, clock)
			roster[i], engines[i] = b, b.Eng
		}
		rt := router.New(roster, router.DefaultScorers())
		h0 := heapNow()
		t0 := cpuNow()
		for i := 0; i < n; i++ {
			var q *engine.Query
			if routed {
				q = rt.AcquireQuery()
			} else {
				q = engines[i%len(engines)].AcquireQuery()
			}
			q.Class = engine.ClassID(1 + i%3)
			q.Cost = 100
			q.Demand = engine.Demand{Work: 0.001, CPURate: 1, IORate: 0.2}
			if routed {
				rt.Submit(q)
			} else {
				engines[i%len(engines)].Submit(q)
			}
			clock.RunUntil(clock.Now() + 0.01)
		}
		t1 := cpuNow()
		return t1 - t0, heapDelta(h0, heapNow())
	}
	direct := make([]float64, 0, 3)
	routed := make([]float64, 0, 3)
	var hd, hr heap
	for i := 0; i < 3; i++ {
		d, h := loop(false)
		direct, hd = append(direct, float64(d)), h
		r, h := loop(true)
		routed, hr = append(routed, float64(r)), h
	}
	fn := float64(n)
	return (median(routed) - median(direct)) / fn,
		(float64(hr.bytes) - float64(hd.bytes)) / fn,
		(float64(hr.objects) - float64(hd.objects)) / fn
}

// setupLedger times the two halves of the paper-qs set-up: NewRig
// (clock, engine, template sets, clients, collector) and attaching the
// Query Scheduler.
func setupLedger(seed uint64, sched workload.Schedule) (rigUS, coreUS float64) {
	const n = 500
	var rigNS, coreNS int64
	for i := 0; i < n; i++ {
		t0 := spanNow()
		rig := experiment.NewRig(seed, sched)
		t1 := spanNow()
		rig.AttachController(experiment.QueryScheduler, nil)
		t2 := spanNow()
		rigNS += t1 - t0
		coreNS += t2 - t1
	}
	return float64(rigNS) / n / 1e3, float64(coreNS) / n / 1e3
}

// runLedger is the traced run. It measures every layer from outside:
// the cumulative ladder on the first periods of the paper schedule, the
// same stack with its seams wrapped, one fleet4-faults pass, and the
// router's per-route cost. The ledger is the same whichever workload is
// named; each per-layer metric says in README.md which workload it
// covers.
func runLedger(w *benchWorkload, seed uint64, seconds float64) (result, error) {
	wall0 := time.Now()
	paper, err := workloadByName("paper-qs")
	if err != nil {
		return result{}, err
	}
	sched := workload.Schedule{PeriodSeconds: paper.sched.PeriodSeconds, Clients: paper.sched.Clients[:ladderPeriods]}
	ckptDir, err := scratchDir("ckpt")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(ckptDir)

	var attempted, failed int
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: incorrect: "+format+"\n", args...)
	}

	// Each round runs every rung and then the seam pass back to back, so
	// slow drift in host speed lands on all of them alike; each rung
	// reports its median round.
	runs := make([][]rungRun, len(ladder))
	var seamRuns []*seamRun
	budget0 := cpuNow()
	for round := 0; ; round++ {
		for i, r := range ladder {
			dir := filepath.Join(ckptDir, fmt.Sprintf("r%d", round))
			rr := r.run(seed, sched, dir)
			os.RemoveAll(dir)
			attempted++
			if rr.err != nil {
				fail("rung %s: %v", r.name, rr.err)
			}
			runs[i] = append(runs[i], rr)
		}
		seamRuns = append(seamRuns, runSeams(seed, sched))
		attempted++
		spent := float64(cpuNow()-budget0) >= seconds*1e9 || time.Since(wall0) > wallCap/2
		if round+1 >= minRounds && spent {
			break
		}
	}
	med := make([]rungRun, len(ladder))
	var perq [3][]float64 // cpu, bytes, allocs per query, per rung
	for i, rs := range runs {
		med[i] = medianRun(rs)
		c, b, a := med[i].perQuery()
		perq[0], perq[1], perq[2] = append(perq[0], c), append(perq[1], b), append(perq[2], a)
	}
	marg := [3][]float64{marginals(perq[0]), marginals(perq[1]), marginals(perq[2])}

	// Every rung from +core up runs the paper-qs tables; all must agree.
	coreIdx := rungIndex("+core")
	ref := med[coreIdx].digest
	for i := coreIdx; i < len(ladder); i++ {
		for _, rr := range runs[i] {
			if rr.err == nil && rr.digest != ref {
				fail("rung %s: digest %016x, +core rung %016x", ladder[i].name, rr.digest, ref)
			}
		}
	}

	fmt.Printf("ladder (median of %d rounds over the first %d paper-schedule periods; per completed query; marginal = this rung minus the one before):\n",
		len(runs[0]), ladderPeriods)
	fmt.Printf("  %-13s %10s %12s %12s %10s %10s %12s\n", "rung", "completed", "cpu_ns/q", "marginal_ns", "B/q", "allocs/q", "events")
	for i, r := range ladder {
		fmt.Printf("  %-13s %10d %12.1f %12.1f %10.2f %10.4f %12d\n", r.name, med[i].completed,
			perq[0][i], marg[0][i], perq[1][i], perq[2][i], med[i].events)
	}
	fmt.Println("  bare and +patroller admit queries differently (no admission control vs the system cost limit),")
	fmt.Println("  so they complete different numbers of queries; compare rungs per query, not in total.")

	// Seams. The overhead of tracing is the paired per-round difference
	// between the seam pass and the untraced +core rung, less the
	// decision log the seam pass writes on purpose.
	timer := timerCostNS()
	var overheads []float64
	for round, sr := range seamRuns {
		if sr.err != nil || sr.dlogErr != nil {
			fail("seam pass: %v %v", sr.err, sr.dlogErr)
			continue
		}
		if sr.digest != ref {
			fail("seam pass: digest %016x, untraced +core rung %016x", sr.digest, ref)
		}
		_, noteNS := sr.log.busy("decisionlog")
		seamQ, _, _ := sr.perQuery()
		coreQ, _, _ := runs[coreIdx][round].perQuery()
		overheads = append(overheads, seamQ-coreQ-float64(noteNS)/float64(sr.completed))
	}
	seams := seamRuns[len(seamRuns)-1]
	solveCalls, solveNS := seams.log.busy("solver")
	noteCalls, noteNS := seams.log.busy("decisionlog")
	dispatchNS := ratio(float64(seams.dispatch.sampledNS), float64(seams.dispatch.sampled)) - timer
	dispatchBusy := dispatchNS * float64(seams.dispatch.calls)
	overhead := median(overheads)
	spanPath, err := writeSpans(w.name, seed, seams.log.spans)
	if err != nil {
		return result{}, err
	}

	// Fleet and router.
	fleet, err := runFleet(seed)
	attempted++
	if err != nil {
		return result{}, err
	}
	fw, _ := workloadByName("fleet4-faults")
	untraced := experiment.RunMixed(fw.config(seed, fw.sched, nil, nil))
	attempted++
	if err := checkResult(untraced); err != nil {
		fail("untraced fleet pass: %v", err)
	} else if d := tableDigest(untraced); d != fleet.digest {
		fail("traced fleet pass digest %016x, untraced %016x", fleet.digest, d)
	}
	routeNS, routeB, routeAllocs := routeCost(200000)
	rigUS, coreUS := setupLedger(seed, sched)

	fr := fleet.res
	var routed int64
	var maxRouted int64
	for _, n := range fr.Routed {
		routed += n
		if n > maxRouted {
			maxRouted = n
		}
	}
	var fo outcome
	fo.add(fr.MixedResult)
	coreRun := med[coreIdx]
	top := len(ladder) - 1
	trace := med[rungIndex("+trace")].extra
	dl := med[rungIndex("+decisionlog")].extra
	ck := med[rungIndex("+checkpoint")].extra
	values := map[string]float64{
		"simclock.events":                       float64(coreRun.events),
		"simclock.events_per_query":             float64(coreRun.events) / float64(coreRun.completed),
		"simclock.cpu_ns_per_event":             float64(coreRun.cpuNS) / float64(coreRun.events),
		"engine.cpu_ns_per_query":               perq[0][0],
		"engine.submitted":                      float64(fo.completed + fo.failed + fo.pending),
		"engine.completed":                      float64(fo.completed),
		"engine.aborted":                        float64(fo.aborts),
		"workload.setup_us":                     rigUS,
		"patroller.marginal_cpu_ns_per_query":   marg[0][1],
		"patroller.intercepted":                 coreRun.extra["intercepted"],
		"patroller.wait_s_per_query":            coreRun.extra["wait_s_per_query"],
		"patroller.retried":                     float64(fo.retried),
		"patroller.timed_out":                   float64(fo.timeout),
		"patroller.evacuated":                   float64(fo.evacuated),
		"patroller.retry_ratio":                 ratio(float64(fo.retried), float64(fo.intercepted)),
		"core.marginal_cpu_ns_per_query":        marg[0][coreIdx],
		"core.control_ticks":                    float64(coreRun.ticks),
		"core.dispatch_calls":                   float64(seams.dispatch.calls),
		"core.dispatch_ns_per_call":             dispatchNS,
		"core.dispatch_share":                   dispatchBusy / float64(seams.cpuNS),
		"core.setup_us":                         coreUS,
		"solver.calls":                          float64(solveCalls),
		"solver.us_per_solve":                   ratio(float64(solveNS), float64(solveCalls)) / 1e3,
		"solver.share":                          float64(solveNS) / float64(seams.cpuNS),
		"obs.marginal_cpu_ns_per_query":         marg[0][rungIndex("+obs")],
		"obs.exposition_bytes":                  med[rungIndex("+obs")].extra["obs.exposition_bytes"],
		"trace.marginal_cpu_ns_per_query":       marg[0][rungIndex("+trace")],
		"trace.marginal_bytes_per_query":        marg[1][rungIndex("+trace")],
		"trace.marginal_allocs_per_query":       marg[2][rungIndex("+trace")],
		"trace.events":                          trace["trace.events"],
		"trace.bytes_per_query":                 trace["trace.bytes"] / float64(coreRun.completed),
		"trace.sink_writes":                     trace["trace.sink_writes"],
		"decisionlog.marginal_cpu_ns_per_query": marg[0][rungIndex("+decisionlog")],
		"decisionlog.records":                   dl["decisionlog.records"],
		"decisionlog.bytes":                     dl["decisionlog.bytes"],
		"decisionlog.us_per_note":               ratio(float64(noteNS), float64(noteCalls)) / 1e3,
		"checkpoint.marginal_cpu_ns_per_query":  marg[0][top],
		"checkpoint.files":                      ck["checkpoint.files"],
		"checkpoint.bytes_per_file":             ratio(ck["checkpoint.bytes"], ck["checkpoint.files"]),
		"checkpoint.ms_per_write":               ratio(marg[0][top]*float64(med[top].completed), ck["checkpoint.files"]) / 1e6,
		"router.routed":                         float64(routed),
		"router.rerouted":                       float64(fleet.rerouted),
		"router.reroute_ratio":                  ratio(float64(fleet.rerouted), float64(routed)),
		"router.ns_per_route":                   routeNS,
		"router.bytes_per_route":                routeB,
		"router.allocs_per_route":               routeAllocs,
		"router.planner_ticks":                  float64(len(fr.Plans)),
		"router.migrations":                     float64(fleet.events["migration"]),
		"router.sheds":                          float64(fleet.events["shed"]),
		"backend.max_routed_share":              ratio(float64(maxRouted), float64(routed)),
		"backend.down_s":                        fleet.downS,
		"fault.injected":                        float64(fr.Faults.Total()),
		"ledger.overhead_ns_per_query":          overhead,
	}

	fmt.Printf("seams (the +core stack with wrapped solver, sampled dispatch, Step loop and a timed decision log):\n")
	fmt.Printf("  solve: %d calls, %.1f us each, %.2f%% of the pass; note: %d calls, %.1f us each\n",
		solveCalls, values["solver.us_per_solve"], 100*values["solver.share"], noteCalls, values["decisionlog.us_per_note"])
	fmt.Printf("  dispatch: %d calls, %d timed, %.1f ns each after a %.1f ns timer correction, %.2f%% of the pass\n",
		seams.dispatch.calls, seams.dispatch.sampled, dispatchNS, timer, 100*values["core.dispatch_share"])
	fmt.Printf("  spans written to %s (%d spans)\n", spanPath, len(seams.log.spans))
	fmt.Printf("overhead: median over %d rounds of (traced seam pass - untraced +core rung - decision-log notes) = %.1f ns/q; traced digest %s untraced\n",
		len(overheads), overhead, map[bool]string{true: "equals", false: "DIFFERS FROM"}[seams.digest == ref])
	fmt.Printf("fleet pass: %d routed, events %s, cpu %.2f s; not measurable from outside RunFleet: planner tick and checkpoint write spans (both run inside the rig), so router.planner_ticks is a count and checkpoint.ms_per_write is the checkpoint rung's marginal CPU per file\n",
		routed, fmtEvents(fleet.events), float64(fleet.cpuNS)/1e9)

	m, err := metricsOf(perLayerMetrics, values)
	if err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func rungIndex(name string) int {
	for i, r := range ladder {
		if r.name == name {
			return i
		}
	}
	panic("perfbench: no rung " + name)
}

// marginals turns cumulative per-rung values into per-layer increments:
// the first rung's value, then each rung minus the one before. They sum
// to the top rung's value.
func marginals(cum []float64) []float64 {
	out := make([]float64, len(cum))
	prev := 0.0
	for i, v := range cum {
		out[i] = v - prev
		prev = v
	}
	return out
}

// medianRun returns the round whose CPU per query is the median.
func medianRun(rs []rungRun) rungRun {
	s := append([]rungRun(nil), rs...)
	sort.Slice(s, func(i, j int) bool {
		ci, _, _ := s[i].perQuery()
		cj, _, _ := s[j].perQuery()
		return ci < cj
	})
	return s[len(s)/2]
}

func writeSpans(workloadName string, seed uint64, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workloadName, seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

func fmtEvents(ev map[string]int) string {
	keys := make([]string, 0, len(ev))
	for k := range ev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, ev[k])
	}
	return strings.Join(parts, " ")
}

// collectorCompleted counts every completion a collector recorded.
func collectorCompleted(col *metrics.Collector) int {
	n := 0
	for p := 0; p < col.Periods(); p++ {
		for _, id := range col.ClassIDs() {
			n += col.Agg(p, id).Completed
		}
	}
	return n
}
