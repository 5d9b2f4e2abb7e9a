// Determinism regression tests for the parallel experiment layer: a sweep
// fanned across 8 workers must produce byte-identical summarized output to
// the same sweep run serially. This is the guard for the per-run isolation
// invariant documented in parallel.go — any shared mutable state between
// runs would eventually break these (and trip `go test -race`, see
// scripts/check.sh).
package experiment

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// Replicated runs below reuse shortSchedule from experiment_test.go — a
// scaled-down Figure-3-style schedule that stays fast under -race.

func TestSaturationParallelMatchesSerial(t *testing.T) {
	cfg := SaturationConfig{
		Limits:      []float64{4000, 10000, 16000, 22000, 28000, 34000},
		OLAPClients: 8,
		Window:      600,
		Seed:        3,
	}
	cfg.Parallel = 1
	serial := RunSaturation(cfg)
	cfg.Parallel = 8
	parallel := RunSaturation(cfg)

	got, want := SaturationCSV(parallel), SaturationCSV(serial)
	if got != want {
		t.Fatalf("parallel sweep diverged from serial:\nserial:\n%s\nparallel:\n%s", want, got)
	}
	var a, b bytes.Buffer
	WriteSaturation(&a, serial)
	WriteSaturation(&b, parallel)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", a.String(), b.String())
	}
}

func TestReplicatedParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	sched := shortSchedule()
	seeds := []uint64{1, 2, 3, 4}
	serial := RunReplicated(NoControl, sched, seeds, 1)
	parallel := RunReplicated(NoControl, sched, seeds, 8)

	classes := workload.PaperClasses()
	var a, b bytes.Buffer
	WriteReplication(&a, classes, []Replication{serial})
	WriteReplication(&b, classes, []Replication{parallel})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("replicated output differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
			a.String(), b.String())
	}
}

func TestFig2ParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	cfg := Fig2Config{
		Pairs:  [][2]int{{10, 2}, {20, 4}},
		Limits: []float64{5000, 15000, 25000},
		Window: 600,
		Seed:   2,
	}
	cfg.Parallel = 1
	serial := RunFig2(cfg)
	cfg.Parallel = 6
	parallel := RunFig2(cfg)
	if got, want := Fig2CSV(parallel), Fig2CSV(serial); got != want {
		t.Fatalf("fig2 parallel sweep diverged:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestTraceExportParallelMatchesSerial extends the isolation invariant to
// the observability layer: the JSONL trace and metrics exposition of each
// run in a sweep must come out byte-identical whether the sweep ran
// serially or on 8 workers. Each run owns its tracer, registry, and
// output buffer, so any divergence means shared mutable state leaked in.
func TestTraceExportParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("QS runs are slow under -race")
	}
	sched := shortSchedule()
	seeds := []uint64{1, 2, 3}
	export := func(parallel int) (traces, metrics [][]byte) {
		type artifacts struct{ trace, metrics []byte }
		outs := Map(parallel, seeds, func(seed uint64, _ int) artifacts {
			var tb, mb bytes.Buffer
			res := RunMixed(MixedConfig{
				Mode: QueryScheduler, Sched: sched, Seed: seed,
				Experiment: "determinism", Trace: &tb, Metrics: &mb,
			})
			if res.ExportErr != nil {
				t.Error(res.ExportErr)
			}
			return artifacts{tb.Bytes(), mb.Bytes()}
		})
		for _, o := range outs {
			traces = append(traces, o.trace)
			metrics = append(metrics, o.metrics)
		}
		return traces, metrics
	}
	serialT, serialM := export(1)
	parallelT, parallelM := export(8)
	for i := range seeds {
		if !bytes.Equal(serialT[i], parallelT[i]) {
			t.Errorf("seed %d: JSONL trace differs between -parallel 1 and -parallel 8", seeds[i])
		}
		if len(serialT[i]) == 0 || bytes.Count(serialT[i], []byte("\n")) < 2 {
			t.Errorf("seed %d: trace export suspiciously small (%d bytes)", seeds[i], len(serialT[i]))
		}
		if !bytes.Equal(serialM[i], parallelM[i]) {
			t.Errorf("seed %d: metrics exposition differs between -parallel 1 and -parallel 8", seeds[i])
		}
		if !bytes.Contains(serialM[i], []byte("sim_time_seconds")) {
			t.Errorf("seed %d: metrics exposition missing sim_time_seconds:\n%s", seeds[i], serialM[i])
		}
	}
}

func TestDetectionReplicatedParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("QS runs are slow under -race")
	}
	cfg := DefaultDetectionConfig()
	cfg.Sched = shortSchedule()
	cfg.MatchWindow = cfg.Sched.PeriodSeconds / 2
	seeds := []uint64{1, 2, 3, 4}
	serial := RunDetectionReplicated(cfg, seeds, 1)
	parallel := RunDetectionReplicated(cfg, seeds, 4)
	var a, b bytes.Buffer
	WriteDetection(&a, serial)
	WriteDetection(&b, parallel)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("detection aggregate differs:\nserial:\n%s\nparallel:\n%s", a.String(), b.String())
	}
}
