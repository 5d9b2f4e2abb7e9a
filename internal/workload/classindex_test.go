package workload

import (
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
)

// TestClassIndexMatchesSortedReference checks the index over random
// rosters of distinct IDs — with and without 0, gapped, and spanning up
// to 2^16 — against a sorted-slice reference: a member's row is its
// position in the sorted IDs, and every other ID reads -1.
func TestClassIndexMatchesSortedReference(t *testing.T) {
	src := rng.New(28)
	for trial := 0; trial < 300; trial++ {
		span := []int{4, 64, 1 << 16}[trial%3]
		n := 1 + src.Intn(min(span, 12))
		seen := map[engine.ClassID]bool{}
		var roster []*Class
		if trial%2 == 0 {
			roster = append(roster, &Class{ID: 0})
			seen[0] = true
		}
		for len(roster) < n {
			id := engine.ClassID(src.Intn(span))
			if !seen[id] {
				seen[id] = true
				roster = append(roster, &Class{ID: id})
			}
		}
		ref := make([]engine.ClassID, 0, len(roster))
		for _, c := range roster {
			ref = append(ref, c.ID)
		}
		slices.Sort(ref)
		x := NewClassIndex(roster)
		if x.Len() != len(ref) || !slices.Equal(x.IDs(), ref) {
			t.Fatalf("trial %d: IDs %v, want %v", trial, x.IDs(), ref)
		}
		for want, id := range ref {
			if got := x.Row(id); got != want {
				t.Fatalf("trial %d: Row(%d) = %d, want %d", trial, id, got, want)
			}
		}
		lo, hi := ref[0], ref[len(ref)-1]
		outside := []engine.ClassID{-1, -engine.ClassID(span), lo - 1, hi + 1, hi + engine.ClassID(span),
			math.MinInt, math.MaxInt}
		for id := lo; id <= hi && id < lo+256; id++ {
			outside = append(outside, id) // members are skipped below: gaps only
		}
		for _, id := range outside {
			if _, member := slices.BinarySearch(ref, id); member {
				continue
			}
			if got := x.Row(id); got != -1 {
				t.Fatalf("trial %d: Row(%d) = %d for an ID outside the roster %v", trial, id, got, ref)
			}
		}
	}
}

// A class listed twice gets one row, and an empty roster has none.
func TestClassIndexDuplicatesAndEmpty(t *testing.T) {
	x := NewClassIndex([]*Class{{ID: 7}, {ID: 3}, {ID: 7}})
	if !slices.Equal(x.IDs(), []engine.ClassID{3, 7}) || x.Row(7) != 1 || x.Row(3) != 0 {
		t.Fatalf("IDs %v, Row(3) %d, Row(7) %d", x.IDs(), x.Row(3), x.Row(7))
	}
	var empty ClassIndex
	for _, e := range []ClassIndex{NewClassIndex(nil), empty} {
		if e.Len() != 0 || e.Row(0) != -1 || e.Row(1) != -1 {
			t.Fatalf("empty index: Len %d, Row(0) %d, Row(1) %d", e.Len(), e.Row(0), e.Row(1))
		}
	}
}
