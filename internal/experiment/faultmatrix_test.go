package experiment

import (
	"bytes"
	"testing"
)

// TestFaultMatrixParallelMatchesSerial extends the per-run isolation
// invariant to the fault layer: every cell owns its rig, injector, and
// RNG stream, so the matrix must come out byte-identical whether the
// cells ran serially or on 8 workers (and clean under -race).
func TestFaultMatrixParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("fault matrix is too slow for -short")
	}
	cfg := QuickFaultMatrixConfig()
	cfg.Parallel = 1
	serial := RunFaultMatrix(cfg)
	cfg.Parallel = 8
	parallel := RunFaultMatrix(cfg)

	if got, want := FaultMatrixCSV(parallel), FaultMatrixCSV(serial); got != want {
		t.Fatalf("fault matrix diverged between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s", want, got)
	}
	var a, b bytes.Buffer
	WriteFaultMatrix(&a, serial)
	WriteFaultMatrix(&b, parallel)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", a.String(), b.String())
	}
}

// TestFaultMatrixMitigationHelpsUnderAbortStorm is the PR's acceptance
// criterion in miniature: under the combined abort+misestimation
// scenario, the mitigation stack (retry/backoff + hold-plan degradation +
// last-fit fallback) must beat the unmitigated run on OLAP SLO adherence
// AND OLTP mean response time, and the fault-path counters must show the
// machinery actually engaged.
func TestFaultMatrixMitigationHelpsUnderAbortStorm(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("fault matrix is too slow for -short")
	}
	cfg := QuickFaultMatrixConfig()
	cells := RunFaultMatrix(cfg)

	find := func(name string, mitigated bool) *FaultCell {
		for i := range cells {
			if cells[i].Scenario == name && cells[i].Mitigated == mitigated {
				return &cells[i]
			}
		}
		t.Fatalf("cell %s/mitigated=%t missing", name, mitigated)
		return nil
	}
	off := find("abort+misestimate", false)
	on := find("abort+misestimate", true)

	if off.Injected.Aborts == 0 || on.Retried == 0 {
		t.Fatalf("scenario did not engage: off=%+v on.Retried=%d", off.Injected, on.Retried)
	}
	if off.Retried != 0 || off.TimedOut != 0 {
		t.Fatalf("unmitigated cell ran retries: %+v", off)
	}
	if on.OLAPSatisfaction <= off.OLAPSatisfaction {
		t.Fatalf("mitigated OLAP satisfaction %.3f did not beat unmitigated %.3f",
			on.OLAPSatisfaction, off.OLAPSatisfaction)
	}
	if on.OLTPMeanRT >= off.OLTPMeanRT {
		t.Fatalf("mitigated OLTP mean RT %.4fs did not beat unmitigated %.4fs",
			on.OLTPMeanRT, off.OLTPMeanRT)
	}
}
