package workload

import (
	"slices"

	"repro/internal/engine"
)

// ClassIndex numbers a roster's classes by row: a class's row is its
// position among the roster's distinct IDs in ascending order. Every
// per-class table that follows a roster — the scheduler's plan rows and
// the monitor's windows, the collector's aggregates, the metrics
// instruments — is a slice of Len rows read through Row, so the ID → row
// arithmetic lives here alone.
type ClassIndex struct {
	ids  []engine.ClassID // ascending and distinct: ids[row] is row's class
	base engine.ClassID   // ids[0]
	rows []int32          // rows[id-base] is id's row, -1 for an ID between members
}

// NewClassIndex indexes the classes' IDs; a class listed twice gets one
// row.
func NewClassIndex(classes []*Class) ClassIndex {
	x := ClassIndex{ids: make([]engine.ClassID, 0, len(classes))}
	for _, c := range classes {
		x.ids = append(x.ids, c.ID)
	}
	slices.Sort(x.ids)
	x.ids = slices.Compact(x.ids)
	if len(x.ids) == 0 {
		return x
	}
	x.base = x.ids[0]
	x.rows = make([]int32, int(x.ids[len(x.ids)-1]-x.base)+1)
	for i := range x.rows {
		x.rows[i] = -1
	}
	for row, id := range x.ids {
		x.rows[id-x.base] = int32(row)
	}
	return x
}

// Row returns id's row, or -1 when id is not in the roster.
//
//qlint:hotpath
func (x *ClassIndex) Row(id engine.ClassID) int {
	// An ID below base reads as a huge unsigned offset, past the table.
	if s := uint(id - x.base); s < uint(len(x.rows)) {
		return int(x.rows[s])
	}
	return -1
}

// Len returns the number of rows.
func (x *ClassIndex) Len() int { return len(x.ids) }

// IDs returns the roster's class IDs in row order. The slice is shared:
// callers must not modify it.
func (x *ClassIndex) IDs() []engine.ClassID { return x.ids }
