package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiment"
)

// Run-length guards. A run always completes its untimed first pass and
// one timed pass over the workload's schedule; it adds timed passes while
// they fit in the --seconds budget and the wall clock is far from the
// per-run limit.
const (
	wallCap      = 120 * time.Second
	setupBatches = 31
	setupBatchNS = 25e6
)

// runEndToEnd is the timed, untraced run of one workload. Its first
// pass is untimed and runs alone, as the workload would in a fresh
// process: it gives the simulated tables, the heap counters and the
// resident-set peak. The timed passes that follow run the reference
// kernel between control ticks (see hostSpeed) and must reproduce the
// first pass's tables.
func runEndToEnd(w *benchWorkload, seed uint64, seconds float64) (result, error) {
	wall0 := time.Now()
	var ckptRoot string
	if w.name == "paper-qs-observed" {
		dir, err := scratchDir("ckpt")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(dir)
		ckptRoot = dir
	}
	newOutputs := func(pass int) *outputs {
		out := &outputs{}
		if ckptRoot != "" {
			out.ckptDir = filepath.Join(ckptRoot, fmt.Sprintf("p%d", pass))
		}
		return out
	}
	dropCheckpoints := func(out *outputs) {
		if out.ckptDir != "" {
			os.RemoveAll(out.ckptDir)
		}
	}

	var attempted, failed int
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: incorrect: "+format+"\n", args...)
	}
	incorrect := func() (result, error) {
		return result{Correct: false, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}, nil
	}

	out := newOutputs(0)
	h0 := heapNow()
	res := experiment.RunMixed(w.config(seed, w.sched, out, nil))
	h1 := heapNow()
	attempted++
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	dropCheckpoints(out)
	if err := checkResult(res); err != nil {
		fail("pass 0: %v", err)
		return incorrect()
	}
	first := fmt.Sprintf("%016x", tableDigest(res))
	if err := verify(w, seed, first); err != nil {
		fail("pass 0: %v", err)
		return incorrect()
	}
	var sim outcome
	sim.add(res)
	mem := h1.sub(h0)
	res = nil

	setup, setupRaw := measureSetup(w, seed)

	var (
		speed   hostSpeed
		cpuNS   int64 // workload CPU of the timed passes, kernel excluded
		queries int   // completed queries of the timed passes
	)
	speed.sample() // also sets the pace origin
	measure0 := cpuNow()
	for pass := 1; ; pass++ {
		out := newOutputs(pass)
		k0 := speed.cpuNS
		t0 := cpuNow()
		res := experiment.RunMixed(w.config(seed, w.sched, out, speed.pace))
		t1 := cpuNow()
		attempted++
		dropCheckpoints(out)
		if err := checkResult(res); err != nil {
			fail("pass %d: %v", pass, err)
			break
		}
		if d := fmt.Sprintf("%016x", tableDigest(res)); d != first {
			fail("pass %d: digest %s differs from pass 0's %s", pass, d, first)
			break
		}
		cpuNS += t1 - t0 - (speed.cpuNS - k0)
		queries += completedOf(res)
		// Stop when another pass as long as this one would overrun.
		if float64(cpuNow()-measure0+t1-t0) > seconds*1e9 || time.Since(wall0) > wallCap {
			break
		}
	}
	if queries == 0 {
		return incorrect()
	}

	raw := float64(cpuNS) / float64(queries)
	values := sim.simMetrics()
	values["cpu_ns_per_query"] = raw * speed.scale()
	values["setup_s"] = setup
	values["peak_rss_mb"] = rss
	values["bytes_per_query"] = float64(mem.bytes) / float64(sim.completed)
	values["allocs_per_query"] = float64(mem.objects) / float64(sim.completed)
	metrics, err := metricsOf(endToEndMetrics, values)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("context (not metrics): passes=%d completed_per_pass=%d digest=%s oltp_p95_median_ms=%.1f kernel_calls=%d kernel_ms=%.3f host_scale=%.4f raw_cpu_ns_per_query=%.1f raw_setup_s=%.4g\n",
		attempted, sim.completed, first, sim.oltpTailMS(), speed.calls, float64(speed.cpuNS)/float64(speed.calls)/1e6, speed.scale(), raw, setupRaw)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// completedOf counts a result's completions.
func completedOf(res *experiment.MixedResult) int {
	n := 0
	for _, row := range res.Completed {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// verify checks a run's table digest against the digest pinned for the
// workload and seed. A seed with no pin is checked against an untimed
// run of the workload's reference configuration instead: for
// paper-qs-observed that is paper-qs over the same schedule. The other
// workloads are their own reference; their timed passes then confirm
// that the simulation is deterministic.
func verify(w *benchWorkload, seed uint64, digest string) error {
	if want, ok := pinnedDigest(w.name, seed); ok {
		if digest != want {
			return fmt.Errorf("digest %s, pinned %s for %s seed %d", digest, want, w.name, seed)
		}
		return nil
	}
	if w.sameTablesAs == "" {
		return nil
	}
	ref := experiment.RunMixed(w.reference(seed))
	if err := checkResult(ref); err != nil {
		return fmt.Errorf("reference run: %v", err)
	}
	if d := fmt.Sprintf("%016x", tableDigest(ref)); d != digest {
		return fmt.Errorf("digest %s, reference run %s for %s seed %d", digest, d, w.name, seed)
	}
	return nil
}

// measureSetup returns the median, over setupBatches batches, of the
// mean process CPU seconds one set-up costs, scaled to the nominal host
// by the reference kernel run after each batch, and the same median
// unscaled. A set-up is RunMixed over the workload's set-up schedule,
// which builds the full stack, admits the first queries and collects an
// empty result. One set-up is tens of microseconds, too short to time
// alone.
func measureSetup(w *benchWorkload, seed uint64) (scaled, raw float64) {
	sched := w.setupSchedule()
	build := func() { experiment.RunMixed(w.config(seed, sched, &outputs{}, nil)) }
	build() // first-use costs (page faults, lazy runtime state) stay out
	k := 0
	for t0 := cpuNow(); k < 3 || float64(cpuNow()-t0) < setupBatchNS; k++ {
		build()
	}
	scaledPer := make([]float64, setupBatches)
	rawPer := make([]float64, setupBatches)
	for b := range scaledPer {
		t0 := cpuNow()
		for i := 0; i < k; i++ {
			build()
		}
		rawPer[b] = float64(cpuNow()-t0) / float64(k) / 1e9
		var speed hostSpeed
		speed.sample()
		scaledPer[b] = rawPer[b] * speed.scale()
	}
	return median(scaledPer), median(rawPer)
}
