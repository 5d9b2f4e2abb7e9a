package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
)

func TestStreamJSONLSecondAttachErrors(t *testing.T) {
	var first, second bytes.Buffer
	tr := New()
	if err := tr.StreamJSONL(&first, Meta{Experiment: "a"}); err != nil {
		t.Fatal(err)
	}
	err := tr.StreamJSONL(&second, Meta{Experiment: "b"})
	if err == nil {
		t.Fatal("second sink accepted")
	}
	if !strings.Contains(err.Error(), "already attached") {
		t.Fatalf("error = %v", err)
	}
	if second.Len() != 0 {
		t.Fatalf("rejected sink received %d bytes", second.Len())
	}
	// The first sink keeps streaming untouched.
	tr.Emit(Event{Time: 1, Kind: QuerySubmit, Query: 1})
	if tr.SinkErr() != nil {
		t.Fatal(tr.SinkErr())
	}
	meta, events := scanEvents(t, first.Bytes())
	if meta.Experiment != "a" || len(events) != 1 {
		t.Fatalf("first sink corrupted: %+v %+v", meta, events)
	}
}

func TestAbortAndRetryEventsRoundTripJSONL(t *testing.T) {
	tr, buf := streamed(t)
	tr.Emit(Event{Time: 3, Kind: QueryAborted, Class: 1, Query: 9, Num: [2]float64{0}})
	tr.Emit(Event{Time: 5, Kind: QueryRetried, Class: 1, Query: 10, Num: [2]float64{1}})
	tr.Flush()
	_, events := scanEvents(t, buf.Bytes())
	if len(events) != 2 {
		t.Fatalf("%d events", len(events))
	}
	if events[0].Kind != QueryAborted || events[0].Detail != "attempt=0" {
		t.Fatalf("event[0] = %+v", events[0])
	}
	if events[1].Kind != QueryRetried || events[1].Query != 10 || events[1].Detail != "attempt=1" {
		t.Fatalf("event[1] = %+v", events[1])
	}
}

func TestAttachedEngineAndPatrollerRecordAbortRetry(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 10, IOCapacity: 10}, clock)
	pat := patroller.New(eng, 1)
	pat.SetPolicy(patroller.ReleaseAll{})
	pat.SetRetryPolicy(&patroller.RetryPolicy{MaxAttempts: 2, Backoff: 1})
	tr, buf := streamed(t)
	AttachEngine(tr, eng)
	AttachPatroller(tr, pat, clock)

	q := &engine.Query{Class: 1, Cost: 10, Demand: engine.Demand{Work: 5, CPURate: 1}}
	eng.Submit(q)
	clock.After(2, func() { eng.Abort(q) })
	clock.Run()

	tr.Flush()
	kinds := kindCounts(t, buf.Bytes())
	if kinds[QueryAborted] != 1 || kinds[QueryRetried] != 1 {
		t.Fatalf("counts = %v", kinds)
	}
	// The failed attempt must not masquerade as a completion; only the
	// retry completes.
	if kinds[QueryDone] != 1 {
		t.Fatalf("done count = %d, want 1 (retry only)", kinds[QueryDone])
	}
	var abortAt, retryAt simclock.Time = -1, -1
	tr.Flush()
	_, events := scanEvents(t, buf.Bytes())
	for _, ev := range events {
		switch ev.Kind {
		case QueryAborted:
			abortAt = ev.Time
		case QueryRetried:
			retryAt = ev.Time
		}
	}
	// The retry event marks the retry decision, made at the abort
	// instant; the backoff delays only the resubmission.
	if abortAt != 2 || retryAt != 2 {
		t.Fatalf("abort at %v, retry at %v, want both at 2", abortAt, retryAt)
	}
}
