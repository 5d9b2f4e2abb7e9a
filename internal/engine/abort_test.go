package engine

import "testing"

func TestAbortMidExecutionIsTerminal(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	var aborted, done []*Query
	e.OnAbort(func(q *Query) { aborted = append(aborted, q) })
	e.OnDone(func(q *Query) { done = append(done, q) })
	e.Submit(q)
	clock.After(4, func() {
		if !e.Abort(q) {
			t.Fatal("abort of executing query refused")
		}
	})
	clock.Run()
	if q.State != StateFailed {
		t.Fatalf("state = %v, want StateFailed", q.State)
	}
	if !almost(q.DoneTime, 4) {
		t.Fatalf("done time = %v, want 4", q.DoneTime)
	}
	if len(aborted) != 1 || aborted[0] != q {
		t.Fatalf("abort listeners saw %v", aborted)
	}
	if len(done) != 1 || done[0] != q {
		t.Fatalf("unclaimed abort must reach done listeners, saw %v", done)
	}
	if st := e.Stats(); st.Aborted != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortClaimedByHandlerSuppressesDone(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	var doneCalls, claims int
	e.OnDone(func(*Query) { doneCalls++ })
	e.SetAbortHandler(func(*Query) bool { claims++; return true })
	e.Submit(q)
	clock.After(4, func() { e.Abort(q) })
	clock.Run()
	if claims != 1 {
		t.Fatalf("handler claims = %d", claims)
	}
	if doneCalls != 0 {
		t.Fatalf("claimed abort reached done listeners %d times", doneCalls)
	}
}

func TestAbortNonExecutingQueryRefused(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(1)
	e.Submit(q)
	clock.Run()
	if q.State != StateDone {
		t.Fatalf("state = %v", q.State)
	}
	if e.Abort(q) {
		t.Fatal("abort of completed query accepted")
	}
	if e.Abort(nil) {
		t.Fatal("abort of nil query accepted")
	}
	if st := e.Stats(); st.Aborted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetSpeedScalesProgress(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	e.Submit(q)
	e.SetSpeed(0.5)
	clock.Run()
	if !almost(q.DoneTime, 20) {
		t.Fatalf("done = %v, want 20 at half speed", q.DoneTime)
	}
}

func TestStallWindowFreezesProgress(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	e.Submit(q)
	// Stall [4, 7): three frozen seconds push completion from 10 to 13.
	clock.At(4, func() { e.SetSpeed(0) })
	clock.At(7, func() { e.SetSpeed(1) })
	clock.Run()
	if q.State != StateDone {
		t.Fatalf("state = %v after stall window ended", q.State)
	}
	if !almost(q.DoneTime, 13) {
		t.Fatalf("done = %v, want 13 after a 3s stall", q.DoneTime)
	}
	if e.Speed() != 1 {
		t.Fatalf("speed = %v", e.Speed())
	}
}

func TestRetryAttemptCarriesThrough(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	first := cpuQuery(10)
	var retried *Query
	e.SetAbortHandler(func(failed *Query) bool {
		retried = &Query{Demand: failed.Demand, Attempt: failed.Attempt + 1}
		e.Submit(retried)
		return true
	})
	e.Submit(first)
	clock.After(4, func() { e.Abort(first) })
	clock.Run()
	if retried == nil || retried.State != StateDone {
		t.Fatalf("retry did not complete: %+v", retried)
	}
	if retried.Attempt != 1 {
		t.Fatalf("attempt = %d", retried.Attempt)
	}
	// The retry restarts from scratch at the abort instant.
	if !almost(retried.DoneTime, 14) {
		t.Fatalf("retry done = %v, want 14", retried.DoneTime)
	}
}

// Engines that share a freelist pass query objects between them, and
// QueryIDs count per engine: an object finished on one engine can run on
// another under an ID the first engine also issued. An abort aimed at it
// from the first engine must not touch either active set.
func TestAbortRefusesQueryOfAnotherEngine(t *testing.T) {
	a, clock := newTestEngine(1, 1)
	b := New(a.Config(), clock)
	b.ShareFreelist(a)

	first := a.AcquireQuery()
	first.Demand = Demand{Work: 1, CPURate: 1}
	a.Submit(first)
	clock.Run() // completes on a and returns to the shared list

	q := b.AcquireQuery()
	if q != first {
		t.Fatal("shared freelist did not hand b the object a recycled")
	}
	q.Demand = Demand{Work: 10, CPURate: 1}
	b.Submit(q)
	r := cpuQuery(10)
	a.Submit(r)

	if a.Abort(q) {
		t.Fatal("engine a aborted a query executing on engine b")
	}
	if got := a.ActiveQueries(); len(got) != 1 || got[0] != r || r.State != StateExecuting {
		t.Fatalf("engine a active set = %v, want its own query still executing", got)
	}
	if got := b.ActiveQueries(); len(got) != 1 || got[0] != q || q.State != StateExecuting {
		t.Fatalf("engine b active set = %v (query state %v), want q still executing", got, q.State)
	}
	if st := a.Stats(); st.Aborted != 0 {
		t.Fatalf("engine a stats = %+v, want no abort", st)
	}
}
