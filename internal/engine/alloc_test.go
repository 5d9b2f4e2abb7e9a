//go:build !race

package engine

import "testing"

// TestStationScalesAllocFree pins the hotalloc fix that replaced the
// per-reschedule sort.Slice closure with an insertion sort: the weighted
// water-filling path must not allocate once the scratch buffers are
// warm. (Skipped under -race: instrumentation adds its own allocations.)
func TestStationScalesAllocFree(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	e.SetClassWeights(map[ClassID]float64{1: 3, 2: 1, 3: 2})
	for i := 0; i < 6; i++ {
		e.Submit(classQuery(ClassID(i%3+1), 1000))
	}
	// One warm-up call grows the scratch buffers to capacity.
	e.cpuScratch = e.stationScales(e.cpuScratch[:0], false, e.cfg.CPUCapacity)
	e.ioScratch = e.stationScales(e.ioScratch[:0], true, e.cfg.IOCapacity)
	allocs := testing.AllocsPerRun(100, func() {
		e.cpuScratch = e.stationScales(e.cpuScratch[:0], false, e.cfg.CPUCapacity)
		e.ioScratch = e.stationScales(e.ioScratch[:0], true, e.cfg.IOCapacity)
	})
	if allocs != 0 {
		t.Fatalf("stationScales allocates %v per reschedule; the weighted water-filling path must be allocation-free", allocs)
	}
}
