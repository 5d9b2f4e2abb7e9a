package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestPeriodAndPlanStamping(t *testing.T) {
	tr, buf := streamed(t)
	tr.SetPeriodMapper(func(at simclock.Time) int { return int(at) / 100 })
	tr.Emit(Event{Time: 50, Kind: QuerySubmit, Query: 1})
	tr.Emit(Event{Time: 150, Kind: PlanChanged})
	tr.Emit(Event{Time: 250, Kind: QueryDone, Query: 1})
	tr.Flush()
	_, ev := scanEvents(t, buf.Bytes())
	if ev[0].Period != 0 || ev[1].Period != 1 || ev[2].Period != 2 {
		t.Fatalf("periods = %d,%d,%d", ev[0].Period, ev[1].Period, ev[2].Period)
	}
	if ev[0].Plan != 0 {
		t.Fatalf("pre-change plan = %d, want 0", ev[0].Plan)
	}
	if ev[1].Plan != 1 || ev[2].Plan != 1 {
		t.Fatalf("post-change plans = %d,%d, want 1,1", ev[1].Plan, ev[2].Plan)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New()
	meta := Meta{Experiment: "fig6", Seed: 7, PeriodSeconds: 100, Periods: 3,
		Classes: []ClassMeta{{ID: 1, Name: "Class 1", Kind: "olap", Goal: "velocity >= 0.40", Target: 0.4}}}
	if err := tr.StreamJSONL(&buf, meta); err != nil {
		t.Fatal(err)
	}
	tr.SetPeriodMapper(func(at simclock.Time) int { return int(at) / 100 })
	tr.Emit(Event{Time: 10, Kind: QuerySubmit, Class: 1, Query: 5, Client: 2, Value: 42.5, Detail: "Q9"})
	tr.Emit(Event{Time: 120, Kind: PlanChanged, Value: 1.5, Detail: "limits: 1=300"})
	tr.Emit(Event{Time: 130, Kind: QueryStart, Class: 1, Query: 5, Client: 2, Value: 42.5})
	tr.Emit(Event{Time: 220, Kind: QueryDone, Class: 1, Query: 5, Client: 2, Value: 42.5})
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}

	gotMeta, events := scanEvents(t, buf.Bytes())
	if gotMeta.Version != FormatVersion || gotMeta.Experiment != "fig6" || gotMeta.Seed != 7 {
		t.Fatalf("meta = %+v", gotMeta)
	}
	if c := gotMeta.ClassByID(1); c == nil || c.Name != "Class 1" || c.Target != 0.4 {
		t.Fatalf("class meta = %+v", c)
	}
	if len(events) != 4 {
		t.Fatalf("%d events exported, want 4 (lossless)", len(events))
	}
	e := events[0]
	if e.Seq != 1 || e.Time != 10 || e.Kind != QuerySubmit || e.Class != 1 ||
		e.Query != 5 || e.Client != 2 || e.Period != 0 || e.Plan != 0 ||
		e.Value != 42.5 || e.Detail != "Q9" {
		t.Fatalf("event[0] = %+v", e)
	}
	if events[2].Plan != 1 || events[2].Period != 1 {
		t.Fatalf("event[2] = %+v", events[2])
	}
}

func TestJSONLExportDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		tr := New()
		if err := tr.StreamJSONL(&buf, Meta{Experiment: "x", Seed: 1}); err != nil {
			t.Fatal(err)
		}
		tr.Emit(Event{Time: 1.0 / 3.0, Kind: QuerySubmit, Query: 1, Value: 0.1 + 0.2})
		tr.Emit(Event{Time: 2, Kind: QueryDone, Query: 1})
		tr.Flush()
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("export not byte-stable:\n%q\n%q", a, b)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no meta":      `{"type":"event","seq":1}`,
		"bad json":     "{not json}",
		"unknown type": `{"type":"wat"}`,
		"bad kind":     "{\"type\":\"meta\",\"v\":1}\n{\"type\":\"event\",\"kind\":\"zap\"}",
		"empty":        "",
	}
	for name, in := range cases {
		err := ScanJSONL(strings.NewReader(in),
			func(Meta) error { return nil }, func(Event) error { return nil })
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestBuildSpans(t *testing.T) {
	events := []Event{
		{Kind: QuerySubmit, Query: 2, Class: 1, Client: 4, Time: 0, Value: 50, Detail: "Q2", Period: 0, Plan: 0},
		{Kind: QuerySubmit, Query: 1, Class: 2, Client: 3, Time: 1, Value: 9, Detail: "Q1"},
		{Kind: QueryIntercepted, Query: 2, Class: 1, Time: 0, Value: 50},
		{Kind: QueryStart, Query: 1, Class: 2, Time: 1},
		{Kind: PlanChanged, Time: 5, Value: 2},
		{Kind: QueryReleased, Query: 2, Class: 1, Time: 10, Value: 50},
		{Kind: QueryStart, Query: 2, Class: 1, Time: 10},
		{Kind: QueryDone, Query: 2, Class: 1, Time: 30, Period: 1, Plan: 1},
	}
	spans := BuildSpans(events)
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[0].Query != 1 || spans[1].Query != 2 {
		t.Fatalf("spans not ID-ordered: %d, %d", spans[0].Query, spans[1].Query)
	}
	managed := spans[1]
	if !managed.Managed() || !managed.Started() || !managed.Completed() {
		t.Fatalf("span predicates wrong: %+v", managed)
	}
	if managed.AdmissionWait(0) != 10 || managed.ExecTime(0) != 20 {
		t.Fatalf("wait=%v exec=%v, want 10, 20", managed.AdmissionWait(0), managed.ExecTime(0))
	}
	if managed.DonePeriod != 1 || managed.DonePlan != 1 || managed.Template != "Q2" {
		t.Fatalf("span = %+v", managed)
	}
	open := spans[0]
	if open.Managed() || open.Completed() || !open.Started() {
		t.Fatalf("unmanaged span predicates wrong: %+v", open)
	}
	if open.AdmissionWait(100) != 0 || open.ExecTime(100) != 99 {
		t.Fatalf("open wait=%v exec=%v", open.AdmissionWait(100), open.ExecTime(100))
	}
	// A query submitted but never started accrues wait against the horizon.
	held := BuildSpans([]Event{{Kind: QuerySubmit, Query: 9, Time: 40}})[0]
	if held.Started() || held.AdmissionWait(100) != 60 || held.ExecTime(100) != 0 {
		t.Fatalf("held span = %+v", held)
	}
}
