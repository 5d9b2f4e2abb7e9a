// The experiment's time-varying intensity schedule (the paper's Figure 3):
// eighteen 8-minute periods with per-class client counts; intensity is
// constant within a period.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// Schedule is a sequence of equal-length periods, each fixing the number
// of active clients per class.
type Schedule struct {
	PeriodSeconds float64
	// Clients[p][classID] is the active-client count in period p.
	Clients []map[engine.ClassID]int
}

// Periods returns the number of periods.
func (s Schedule) Periods() int { return len(s.Clients) }

// Duration returns the schedule's total length in seconds.
func (s Schedule) Duration() float64 { return s.PeriodSeconds * float64(len(s.Clients)) }

// PeriodAt maps a virtual time to a period index (clamped to the last
// period after the schedule ends).
func (s Schedule) PeriodAt(t simclock.Time) int {
	if t < 0 {
		return 0
	}
	p := int(t / s.PeriodSeconds)
	if p >= len(s.Clients) {
		p = len(s.Clients) - 1
	}
	return p
}

// MaxClients returns the largest client count any period needs per class —
// how many clients the pool must pre-create.
func (s Schedule) MaxClients() map[engine.ClassID]int {
	m := make(map[engine.ClassID]int)
	for _, per := range s.Clients {
		for cls, n := range per {
			if n > m[cls] {
				m[cls] = n
			}
		}
	}
	return m
}

// Install arranges for pool client counts to track the schedule: period 0
// is applied immediately and each subsequent boundary is scheduled on the
// clock. onPeriod, when non-nil, fires at the start of every period.
func (s Schedule) Install(clock *simclock.Clock, pool *Pool, onPeriod func(period int)) {
	if len(s.Clients) == 0 {
		panic("workload: empty schedule")
	}
	if s.PeriodSeconds <= 0 {
		panic(fmt.Sprintf("workload: non-positive period length %v", s.PeriodSeconds))
	}
	s.applyPeriod(pool, onPeriod, 0)
	for p := 1; p < len(s.Clients); p++ {
		p := p
		clock.At(float64(p)*s.PeriodSeconds, func() { s.applyPeriod(pool, onPeriod, p) })
	}
}

// applyPeriod activates period p's client counts. Classes apply in ID
// order: SetActive submits queries for newly activated clients, so
// map-order iteration would make the simulation's event order — and thus
// whole runs — irreproducible.
func (s Schedule) applyPeriod(pool *Pool, onPeriod func(period int), p int) {
	ids := make([]engine.ClassID, 0, len(s.Clients[p]))
	for cls := range s.Clients[p] {
		ids = append(ids, cls)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, cls := range ids {
		pool.SetActive(cls, s.Clients[p][cls])
	}
	if onPeriod != nil {
		onPeriod(p)
	}
}

// PaperSchedule reconstructs Figure 3: a 24-hour run broken into 18
// equal 80-minute periods (the OCR of the paper reads "8-minute", but 18
// periods covering the stated 24 hours makes each period 80 minutes — the
// dropped-digit pattern appears throughout the scanned text). OLAP class
// client counts vary between 2 and 6; the OLTP class cycles low/medium/
// high (15/20/25). Period 18 is the heaviest overall (2, 6, 25); period 17
// pairs medium OLTP intensity with the highest OLAP intensity. The paper's
// figure is only readable at this resolution — the exact per-period OLAP
// counts are reconstructed, the constraints above are preserved.
func PaperSchedule() Schedule {
	class1 := []int{2, 4, 3, 2, 3, 4, 4, 2, 3, 3, 4, 2, 2, 3, 4, 2, 6, 2}
	class2 := []int{3, 2, 4, 3, 4, 2, 3, 4, 2, 4, 2, 3, 4, 2, 3, 3, 6, 6}
	class3 := []int{15, 20, 25, 15, 20, 25, 15, 20, 25, 15, 20, 25, 15, 20, 25, 15, 20, 25}
	s := Schedule{PeriodSeconds: 80 * 60}
	for p := 0; p < 18; p++ {
		s.Clients = append(s.Clients, map[engine.ClassID]int{
			1: class1[p],
			2: class2[p],
			3: class3[p],
		})
	}
	return s
}
