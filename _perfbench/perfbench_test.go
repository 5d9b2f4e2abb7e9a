package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/experiment"
	"repro/internal/workload"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if !nameRe.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, nameRe)
			}
			if seen[d.name] {
				t.Errorf("metric name %q is used twice", d.name)
			}
			seen[d.name] = true
			if !unitRe.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRe)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("metric %s: better-direction %q is neither higher nor lower", d.name, d.better)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// short returns the named workload cut to a schedule small enough for a
// unit test.
func short(t *testing.T, name string) *benchWorkload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cut := *w
	cut.sched = workload.Schedule{PeriodSeconds: 600, Clients: w.sched.Clients[:2]}
	return &cut
}

func digestOf(t *testing.T, cfg experiment.MixedConfig) string {
	t.Helper()
	res := experiment.RunMixed(cfg)
	if err := checkResult(res); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", tableDigest(res))
}

func TestDigestCheckRejectsOtherSeed(t *testing.T) {
	w := short(t, "paper-qs")
	one := digestOf(t, w.reference(1))
	saved := pinnedDigests
	defer func() { pinnedDigests = saved }()
	pinnedDigests = map[string]map[uint64]string{w.name: {1: one}}

	if err := verify(w, 1, one); err != nil {
		t.Fatalf("seed 1 against its own pin: %v", err)
	}
	two := digestOf(t, w.reference(2))
	if err := verify(w, 1, two); err == nil {
		t.Fatal("seed 2's tables passed the check pinned for seed 1")
	}
}

func TestUnpinnedObservedIsCheckedAgainstPaperQS(t *testing.T) {
	w := short(t, "paper-qs-observed")
	saved := pinnedDigests
	defer func() { pinnedDigests = saved }()
	pinnedDigests = map[string]map[uint64]string{}

	if err := verify(w, 4, digestOf(t, w.reference(4))); err != nil {
		t.Fatalf("paper-qs's own tables: %v", err)
	}
	if err := verify(w, 4, digestOf(t, w.reference(5))); err == nil {
		t.Fatal("another seed's tables passed the cross-check")
	}
}

// TestTimedPassesKeepTables checks that neither the observability
// streams and checkpoints nor the tick seams that pace the reference
// kernel change a workload's simulated tables.
func TestTimedPassesKeepTables(t *testing.T) {
	for _, name := range []string{"paper-qs", "paper-qs-observed", "fleet4-faults"} {
		w := short(t, name)
		want := digestOf(t, w.reference(3))
		out := &outputs{ckptDir: filepath.Join(t.TempDir(), "ckpt")}
		ticks := 0
		got := digestOf(t, w.config(3, w.sched, out, func() { ticks++ }))
		if got != want {
			t.Errorf("%s: timed pass tables %s, reference %s", name, got, want)
		}
		if ticks == 0 {
			t.Errorf("%s: the tick seam was never reached", name)
		}
		if name == "paper-qs-observed" && (out.trace.bytes == 0 || out.metrics.bytes == 0 || out.decisions.bytes == 0) {
			t.Errorf("%s: an output stream stayed empty: %+v", name, out)
		}
	}
}

func TestLadderMarginalsSumToTopRung(t *testing.T) {
	sched := workload.Schedule{PeriodSeconds: 300, Clients: workload.PaperSchedule().Clients[:1]}
	dir := t.TempDir()
	var cum [3][]float64
	var ref uint64
	for i, r := range ladder {
		rr := r.run(5, sched, filepath.Join(dir, r.layer))
		if rr.err != nil {
			t.Fatalf("rung %s: %v", r.name, rr.err)
		}
		if i == rungIndex("+core") {
			ref = rr.digest
		} else if i > rungIndex("+core") && rr.digest != ref {
			t.Errorf("rung %s digest %016x, +core %016x", r.name, rr.digest, ref)
		}
		c, b, a := rr.perQuery()
		cum[0], cum[1], cum[2] = append(cum[0], c), append(cum[1], b), append(cum[2], a)
	}
	for k, name := range []string{"cpu", "bytes", "allocs"} {
		sum := 0.0
		for _, m := range marginals(cum[k]) {
			sum += m
		}
		top := cum[k][len(cum[k])-1]
		if math.Abs(sum-top) > 1e-9*math.Max(1, math.Abs(top)) {
			t.Errorf("%s: marginals sum to %v, top rung is %v", name, sum, top)
		}
	}
}

func TestStepUntilMatchesRunUntil(t *testing.T) {
	w := short(t, "paper-qs")
	viaRunMixed := tableDigest(experiment.RunMixed(w.reference(7)))
	viaStep := ladder[rungIndex("+core")].run(7, w.sched, "")
	if viaStep.digest != viaRunMixed {
		t.Fatalf("Step-loop rig digest %016x, RunMixed %016x", viaStep.digest, viaRunMixed)
	}
	if viaStep.events == 0 {
		t.Fatal("Step loop counted no events")
	}
}
