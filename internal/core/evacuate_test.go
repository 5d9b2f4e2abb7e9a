package core

import "testing"

// TestEvacuatedQueriesCountInLaterHarvests pins what a fleet failover
// leaves behind in the monitor today: a managed query pulled off this
// backend (held, through Patroller.EvacuateHeld, or executing, through
// Engine.Evacuate and Patroller.ForgetActive) still counts as in flight
// in every later harvest of this backend. Its class is not idle, and
// with no completions its progress estimate is 0, because an evacuated
// query is neither running nor finished here. The other OLAP class,
// which never saw a query, stays idle as the contrast.
func TestEvacuatedQueriesCountInLaterHarvests(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cost     float64
		evacuate func(t *testing.T, r *rig) int
	}{
		// 9000 timerons exceed class 1's share of the 10000 limit, so the
		// query stays held until it is evacuated.
		{"held", 9000, func(t *testing.T, r *rig) int {
			if r.pat.HeldCount() != 1 {
				t.Fatalf("held %d queries before evacuation, want 1", r.pat.HeldCount())
			}
			return len(r.pat.EvacuateHeld())
		}},
		{"executing", 1000, func(t *testing.T, r *rig) int {
			if r.pat.ActiveCount() != 1 {
				t.Fatalf("%d queries executing before evacuation, want 1", r.pat.ActiveCount())
			}
			n := 0
			for _, q := range r.eng.Evacuate() {
				if r.pat.ForgetActive(q.ID) {
					n++
				}
			}
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, func(c *Config) { c.ControlInterval = 100; c.MinOLAPLimit = 0 })
			r.qs.Start()
			r.eng.Submit(olapQuery(1, tc.cost, 10000))
			r.clock.RunUntil(50)
			if n := tc.evacuate(t, r); n != 1 {
				t.Fatalf("evacuated %d queries, want 1", n)
			}
			if r.pat.HeldCount() != 0 || r.pat.ActiveCount() != 0 {
				t.Fatalf("patroller still holds %d and runs %d after evacuation",
					r.pat.HeldCount(), r.pat.ActiveCount())
			}
			r.clock.RunUntil(301)
			hist := r.qs.History()
			if len(hist) != 3 {
				t.Fatalf("%d harvests, want 3", len(hist))
			}
			for i, rec := range hist {
				m := measured(rec, 1)
				if m.Idle || m.Velocity != 0 || m.VelocitySamples != 0 {
					t.Fatalf("harvest %d: class 1 = %+v, want a non-idle 0 estimate from the evacuated row", i, m)
				}
				if !measured(rec, 2).Idle {
					t.Fatalf("harvest %d: class 2 = %+v, want idle", i, measured(rec, 2))
				}
			}
		})
	}
}
