//go:build !race

package patroller

import (
	"testing"

	"repro/internal/engine"
)

// TestViewAllocFree pins that assembling the policy view (every poke) and
// the monitor's Unfinished rows (every control tick) allocates nothing
// once their scratch slices are warm: both sort by ID with no comparator
// closure. (Skipped under -race: instrumentation adds its own
// allocations.)
func TestViewAllocFree(t *testing.T) {
	p, eng, _ := newRig(1)
	for i := 0; i < 8; i++ {
		eng.Submit(q(1, 100, 1000))
	}
	// Release half so the view carries both held and active entries.
	ids := append([]engine.QueryID(nil), p.order[:4]...)
	for _, id := range ids {
		if err := p.Release(id); err != nil {
			t.Fatalf("release %d: %v", id, err)
		}
	}
	_, _ = p.view(), p.Unfinished() // warm-up grows the scratch slices
	allocs := testing.AllocsPerRun(100, func() { _ = p.view() })
	if allocs != 0 {
		t.Fatalf("view() allocates %v per poke; the dispatch path must be allocation-free", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Unfinished() }); allocs != 0 {
		t.Fatalf("Unfinished() allocates %v per control tick", allocs)
	}
}
