package trace

import (
	"bytes"
	"testing"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
)

// streamed returns a tracer streaming into a buffer; scanEvents reads
// the buffer back once the tracer is flushed.
func streamed(t *testing.T) (*Tracer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	tr := New()
	if err := tr.StreamJSONL(&buf, Meta{Experiment: "test"}); err != nil {
		t.Fatal(err)
	}
	return tr, &buf
}

func TestEmitAndOrder(t *testing.T) {
	tr, buf := streamed(t)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: float64(i), Kind: QuerySubmit})
	}
	tr.Flush()
	_, events := scanEvents(t, buf.Bytes())
	if len(events) != 5 {
		t.Fatalf("%d events streamed, want 5", len(events))
	}
	for i, e := range events {
		if e.Time != float64(i) {
			t.Fatalf("order broken: %v", events)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq = %d at %d", e.Seq, i)
		}
	}
}

// TestTotalCountsEveryEvent: Total counts every emitted event, the sink
// carries every one of them, batch boundaries included.
func TestTotalCountsEveryEvent(t *testing.T) {
	tr, buf := streamed(t)
	n := 3*traceBatchSize + 7
	for i := 0; i < n; i++ {
		tr.Emit(Event{Time: float64(i), Kind: QueryStart})
	}
	if tr.Total() != uint64(n) {
		t.Fatalf("Total = %d, want %d", tr.Total(), n)
	}
	tr.Flush()
	_, events := scanEvents(t, buf.Bytes())
	if len(events) != n || events[n-1].Seq != uint64(n) {
		t.Fatalf("%d events streamed, last %+v; want %d", len(events), events[len(events)-1], n)
	}
}

// TestCountByKindMatchesStream: the sink carries every emitted event
// under its kind.
func TestCountByKindMatchesStream(t *testing.T) {
	tr, buf := streamed(t)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: QuerySubmit})
	}
	tr.Emit(Event{Kind: QueryDone})
	tr.Emit(Event{Kind: QueryRerouted, Num: [2]float64{1, 2}})
	tr.Flush()
	counts := kindCounts(t, buf.Bytes())
	if counts[QuerySubmit] != 5 || counts[QueryDone] != 1 || counts[QueryRerouted] != 1 || len(counts) != 3 {
		t.Fatalf("stream counts = %v", counts)
	}
}

// kindCounts scans a streamed trace and counts its events by kind.
func kindCounts(t *testing.T, raw []byte) map[Kind]int {
	t.Helper()
	_, events := scanEvents(t, raw)
	counts := make(map[Kind]int)
	for _, e := range events {
		counts[e.Kind]++
	}
	return counts
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		QuerySubmit: "submit", QueryStart: "start", QueryDone: "done",
		QueryIntercepted: "intercept", QueryReleased: "release",
		PlanChanged: "plan", WorkloadShift: "shift",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", int(k), k.String())
		}
	}
}

func TestAttachEngineRecordsLifecycle(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 10, IOCapacity: 10}, clock)
	tr, buf := streamed(t)
	AttachEngine(tr, eng)
	q := &engine.Query{Class: 2, Client: 7, Cost: 42, Template: "Q1",
		Demand: engine.Demand{Work: 1, CPURate: 1}}
	eng.Submit(q)
	clock.Run()
	tr.Flush()
	_, events := scanEvents(t, buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("%d events, want submit+start+done", len(events))
	}
	if events[0].Kind != QuerySubmit || events[0].Detail != "Q1" || events[0].Value != 42 {
		t.Fatalf("submit event = %+v", events[0])
	}
	if events[1].Kind != QueryStart || events[1].Query != events[0].Query {
		t.Fatalf("start event = %+v", events[1])
	}
	if events[2].Kind != QueryDone || events[2].Detail != "rt=1.000s exec=1.000s" {
		t.Fatalf("done event = %+v", events[2])
	}
}

func TestAttachPatrollerChainsHooks(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 10, IOCapacity: 10}, clock)
	pat := patroller.New(eng, 1)
	prior := 0
	pat.OnArrival(func(*patroller.QueryInfo) { prior++ })
	tr, buf := streamed(t)
	AttachPatroller(tr, pat, clock)
	pat.SetPolicy(patroller.SystemLimit{Limit: 1000})

	q := &engine.Query{Class: 1, Cost: 10, Demand: engine.Demand{Work: 1, CPURate: 1}}
	eng.Submit(q)
	clock.Run()
	if prior != 1 {
		t.Fatal("earlier-registered listener did not run")
	}
	tr.Flush()
	kinds := kindCounts(t, buf.Bytes())
	if kinds[QueryIntercepted] != 1 || kinds[QueryReleased] != 1 {
		t.Fatalf("counts = %v", kinds)
	}
}
