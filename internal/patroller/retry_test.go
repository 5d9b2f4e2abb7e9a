package patroller

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// retryRig arms a retry policy on a patroller whose policy releases
// everything, so queries flow and timeouts are exercised.
func retryRig(rp RetryPolicy) (*Patroller, *engine.Engine, *simclock.Clock) {
	p, eng, clock := newRig(1)
	p.SetPolicy(ReleaseAll{})
	p.SetRetryPolicy(&rp)
	return p, eng, clock
}

func TestAbortedManagedQueryIsRetriedAndCompletes(t *testing.T) {
	p, eng, clock := retryRig(RetryPolicy{MaxAttempts: 3, Backoff: 2})
	log := logRows(p, eng)
	query := q(1, 100, 10)
	var retries []QueryInfo
	p.OnRetry(func(qi *QueryInfo) { retries = append(retries, *qi) })
	eng.Submit(query)
	clock.After(4, func() { eng.Abort(query) })
	clock.Run()
	st := p.Stats()
	if st.Failed != 1 || st.Retried != 1 || st.Exhausted != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(retries) != 1 || retries[0].Attempt != 0 {
		t.Fatalf("retry hook saw %+v", retries)
	}
	if st.Completed != 1 {
		t.Fatalf("retry never completed: %+v", st)
	}
	// Failed attempt's row stays Failed; the retry has its own row.
	table := log.rows
	if len(table) != 2 || table[0].State != Failed || table[1].State != Completed {
		t.Fatalf("rows = %+v", table)
	}
	if table[1].Attempt != 1 {
		t.Fatalf("retry row attempt = %d", table[1].Attempt)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	p, eng, clock := retryRig(RetryPolicy{MaxAttempts: 2, Backoff: 1})
	log := logRows(p, eng)
	// Abort every execution attempt as it starts (plus a bit).
	eng.OnStart(func(query *engine.Query) {
		clock.After(1, func() { eng.Abort(query) })
	})
	eng.Submit(q(1, 100, 10))
	clock.Run()
	st := p.Stats()
	if st.Failed != 2 || st.Retried != 1 || st.Exhausted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(log.rows) != 2 {
		t.Fatalf("rows = %+v, want one per attempt", log.rows)
	}
	for _, qi := range log.rows {
		if qi.State != Failed {
			t.Fatalf("row state = %v, want Failed", qi.State)
		}
	}
}

func TestTimeoutAbortsOverrunningQuery(t *testing.T) {
	p, eng, clock := retryRig(RetryPolicy{
		MaxAttempts: 3, Backoff: 1, TimeoutFloor: 5, TimeoutPerCost: 0.01,
	})
	// Cost 100 -> timeout 6s; work 20s overruns it.
	eng.Submit(q(1, 100, 20))
	clock.RunUntil(6.5)
	st := p.Stats()
	if st.TimedOut != 1 || st.Failed != 1 || st.Retried != 1 {
		t.Fatalf("stats = %+v", st)
	}
	clock.Run()
	// Attempt 2 times out too; the final attempt runs untimed and wins.
	st = p.Stats()
	if st.TimedOut != 2 || st.Exhausted != 0 || st.Completed != 1 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestTimeoutRefreshesCostForRetry(t *testing.T) {
	rp := RetryPolicy{
		MaxAttempts: 3, Backoff: 1, TimeoutFloor: 5, TimeoutPerCost: 0.01,
		RefreshCost: func(failed *engine.Query) float64 { return failed.Cost * 3 },
	}
	p, eng, clock := retryRig(rp)
	log := logRows(p, eng)
	eng.Submit(q(1, 100, 8))
	clock.Run()
	table := log.rows
	if len(table) != 2 {
		t.Fatalf("rows = %+v", table)
	}
	if table[1].Cost != 300 {
		t.Fatalf("retry cost = %v, want 300 after refresh", table[1].Cost)
	}
	// Refreshed cost also grows the retry's timeout (5 + 0.01*300 = 8s),
	// enough for the 8s work to finish on attempt 2.
	if st := p.Stats(); st.Completed != 1 || st.TimedOut != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompletionCancelsPendingTimeout(t *testing.T) {
	p, eng, clock := retryRig(RetryPolicy{
		MaxAttempts: 3, TimeoutFloor: 100, TimeoutPerCost: 0.01,
	})
	eng.Submit(q(1, 100, 10))
	// The query completes at 10; its timeout would fire at 101.
	clock.RunUntil(50)
	st := p.Stats()
	if st.TimedOut != 0 || st.Failed != 0 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if n := clock.Pending(); n != 0 {
		t.Fatalf("%d timeout events leaked", n)
	}
}

func TestUnmanagedAbortIsNotClaimed(t *testing.T) {
	p, eng, clock := retryRig(RetryPolicy{MaxAttempts: 3, Backoff: 1})
	unmanaged := q(9, 100, 10)
	var terminal bool
	eng.OnDone(func(query *engine.Query) {
		if query == unmanaged && query.State == engine.StateFailed {
			terminal = true
		}
	})
	eng.Submit(unmanaged)
	clock.After(2, func() { eng.Abort(unmanaged) })
	clock.Run()
	if !terminal {
		t.Fatal("unmanaged abort was claimed by the patroller")
	}
	if st := p.Stats(); st.Failed != 0 || st.Retried != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidRetryPolicyPanics(t *testing.T) {
	p, _, _ := newRig(1)
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAttempts 0 accepted")
		}
	}()
	p.SetRetryPolicy(&RetryPolicy{MaxAttempts: 0})
}
