package main

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkClockThroughput 	       1	      1030 ns/op	   2890173 events/sec	       0 B/op	       0 allocs/op
BenchmarkFig6-8          	       1	9503327740 ns/op	         0.8889 class1-goal%	         0.8889 class2-goal%	         1.000 class3-goal%
BenchmarkSaturationSweep/parallel=4-8         	       1	  86061569 ns/op
BenchmarkSaturationSweep
PASS
ok  	repro	12.907s
?   	repro/cmd/qsim	[no test files]
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Env["goos"] != "linux" || f.Env["cpu"] == "" {
		t.Errorf("env = %v", f.Env)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	b0 := f.Benchmarks[0]
	if b0.Name != "ClockThroughput" || b0.Procs != 1 || b0.Iterations != 1 {
		t.Errorf("b0 = %+v", b0)
	}
	if b0.Metrics["ns/op"] != 1030 || b0.Metrics["events/sec"] != 2890173 ||
		b0.Metrics["allocs/op"] != 0 {
		t.Errorf("b0 metrics = %v", b0.Metrics)
	}
	b1 := f.Benchmarks[1]
	if b1.Name != "Fig6" || b1.Procs != 8 {
		t.Errorf("b1 = %+v", b1)
	}
	if b1.Metrics["class3-goal%"] != 1.0 {
		t.Errorf("b1 metrics = %v", b1.Metrics)
	}
	b2 := f.Benchmarks[2]
	if b2.Name != "SaturationSweep/parallel=4" || b2.Procs != 8 {
		t.Errorf("b2 = %+v", b2)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkBad 	 x 	 12 ns/op 	 3 B/op\n"))
	if err == nil {
		t.Error("bad iteration count: want error")
	}
	_, err = Parse(strings.NewReader("BenchmarkBad 	 1 	 oops ns/op 	 3 B/op\n"))
	if err == nil {
		t.Error("bad metric value: want error")
	}
}

func TestAddDeltas(t *testing.T) {
	cur, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	prev := &File{Benchmarks: []Benchmark{
		{Name: "ClockThroughput", Procs: 1, Metrics: map[string]float64{
			"ns/op": 2060, "events/sec": 1445086.5, "B/op": 128}},
		{Name: "Fig6", Procs: 8, Metrics: map[string]float64{"ns/op": 9503327740}},
	}}
	addDeltas(cur, prev)

	b0 := cur.Benchmarks[0]
	if d := b0.Delta["ns/op"]; d != -0.5 {
		t.Errorf("ns/op delta = %v, want -0.5", d)
	}
	if d := b0.Delta["events/sec"]; d != 1.0 {
		t.Errorf("events/sec delta = %v, want 1.0", d)
	}
	// allocs/op is 0 in prev (absent) and B/op was 128→0: 0-valued old
	// entries and units the old run lacked produce no delta.
	if _, ok := b0.Delta["allocs/op"]; ok {
		t.Errorf("allocs/op delta present: %v", b0.Delta)
	}
	if d, ok := b0.Delta["B/op"]; !ok || d != -1.0 {
		t.Errorf("B/op delta = %v,%v, want -1", d, ok)
	}
	b1 := cur.Benchmarks[1]
	if d := b1.Delta["ns/op"]; d != 0 {
		t.Errorf("unchanged ns/op delta = %v, want 0", d)
	}
	// Metrics new in this run (goal%) have no previous value: no delta.
	if _, ok := b1.Delta["class1-goal%"]; ok {
		t.Errorf("new metric got a delta: %v", b1.Delta)
	}
	// SaturationSweep has no previous entry at all.
	if cur.Benchmarks[2].Delta != nil {
		t.Errorf("new benchmark got deltas: %v", cur.Benchmarks[2].Delta)
	}
}

func TestLoadPrevToleratesBadBaselines(t *testing.T) {
	dir := t.TempDir()
	if pf, reason := loadPrev(dir + "/absent.json"); pf != nil || reason == "" {
		t.Errorf("missing file: %v %q", pf, reason)
	}
	empty := dir + "/empty.json"
	if err := os.WriteFile(empty, []byte("  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if pf, reason := loadPrev(empty); pf != nil || !strings.Contains(reason, "empty") {
		t.Errorf("empty file: %v %q", pf, reason)
	}
	corrupt := dir + "/corrupt.json"
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if pf, reason := loadPrev(corrupt); pf != nil || !strings.Contains(reason, "unparseable") {
		t.Errorf("corrupt file: %v %q", pf, reason)
	}
	hollow := dir + "/hollow.json"
	if err := os.WriteFile(hollow, []byte(`{"format":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if pf, reason := loadPrev(hollow); pf != nil || !strings.Contains(reason, "no benchmarks") {
		t.Errorf("hollow file: %v %q", pf, reason)
	}

	good := dir + "/good.json"
	body := `{"format":1,"benchmarks":[{"name":"X","procs":1,"iterations":1,"metrics":{"ns/op":5}}]}`
	if err := os.WriteFile(good, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	pf, reason := loadPrev(good)
	if pf == nil || reason != "" || len(pf.Benchmarks) != 1 {
		t.Errorf("good file: %+v %q", pf, reason)
	}
}

// go test -count 3 prints each benchmark's runs back to back.
const countOutput = `pkg: repro
BenchmarkRouterRoute-2   	 1000	       130 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouterRoute-2   	 1000	       120 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouterRoute-2   	 1000	       150 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig6            	    1	      9000 ns/op	         0.8 class1-goal%
BenchmarkFig6            	    1	      7000 ns/op	         0.8 class1-goal%
BenchmarkFig6            	    1	      8000 ns/op	         0.9 class1-goal%
PASS
`

func TestAggregateFoldsRunsIntoMedianAndSpread(t *testing.T) {
	f, err := Parse(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := Aggregate(f, 3); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 || f.Benchmarks[0].Name != "RouterRoute" || f.Benchmarks[1].Name != "Fig6" {
		t.Fatalf("rows = %+v, want RouterRoute then Fig6", f.Benchmarks)
	}
	r := f.Benchmarks[0]
	if r.Runs != 3 || r.Procs != 2 || r.Iterations != 1000 {
		t.Errorf("RouterRoute row = %+v", r)
	}
	if r.Metrics["ns/op"] != 130 || r.Min["ns/op"] != 120 || r.Max["ns/op"] != 150 {
		t.Errorf("RouterRoute ns/op median %v min %v max %v, want 130 120 150",
			r.Metrics["ns/op"], r.Min["ns/op"], r.Max["ns/op"])
	}
	if r.Metrics["B/op"] != 0 || r.Min["B/op"] != 0 || r.Max["B/op"] != 0 {
		t.Errorf("RouterRoute B/op = %v %v %v, want 0", r.Metrics["B/op"], r.Min["B/op"], r.Max["B/op"])
	}
	g := f.Benchmarks[1]
	if g.Metrics["ns/op"] != 8000 || g.Metrics["class1-goal%"] != 0.8 || g.Max["class1-goal%"] != 0.9 {
		t.Errorf("Fig6 row = %+v", g)
	}
}

func TestAggregateEvenCountTakesMiddleMean(t *testing.T) {
	f, err := Parse(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	f.Benchmarks = f.Benchmarks[:2] // two RouterRoute runs: 130 and 120
	if err := Aggregate(f, 2); err != nil {
		t.Fatal(err)
	}
	if got := f.Benchmarks[0].Metrics["ns/op"]; got != 125 {
		t.Errorf("median of 130 and 120 = %v, want 125", got)
	}
}

func TestAggregateCountOneKeepsRows(t *testing.T) {
	want, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Parse(strings.NewReader(sampleOutput))
	if err := Aggregate(got, 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("count 1 changed the rows:\n got %+v\nwant %+v", got.Benchmarks, want.Benchmarks)
	}
}

func TestAggregateRejectsMismatchedCounts(t *testing.T) {
	for _, count := range []int{0, 2, 4} {
		f, err := Parse(strings.NewReader(countOutput))
		if err != nil {
			t.Fatal(err)
		}
		if err := Aggregate(f, count); err == nil {
			t.Errorf("count %d over 3 runs per benchmark: want error", count)
		}
	}
	f, _ := Parse(strings.NewReader(countOutput))
	f.Benchmarks[1].Metrics = map[string]float64{"B/op": 0} // one run lacks ns/op
	if err := Aggregate(f, 3); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("a run missing a unit: err = %v", err)
	}
}

func TestAddDeltasLabelsNoiseInsideSpread(t *testing.T) {
	f, err := Parse(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := Aggregate(f, 3); err != nil {
		t.Fatal(err)
	}
	prev := &File{Benchmarks: []Benchmark{
		// 140 lies in [120, 150]; 100 B/op lies outside [0, 0].
		{Name: "RouterRoute", Procs: 2, Metrics: map[string]float64{"ns/op": 140, "B/op": 100}},
		// 10000 lies outside [7000, 9000]; 0.85 inside [0.8, 0.9].
		{Name: "Fig6", Procs: 1, Metrics: map[string]float64{"ns/op": 10000, "class1-goal%": 0.85}},
	}}
	addDeltas(f, prev)
	if r := f.Benchmarks[0]; !slices.Equal(r.Noise, []string{"ns/op"}) || r.Delta["B/op"] != -1 {
		t.Errorf("RouterRoute noise %v delta %v, want noise [ns/op] and a B/op delta of -1", r.Noise, r.Delta)
	}
	if g := f.Benchmarks[1]; !slices.Equal(g.Noise, []string{"class1-goal%"}) || g.Delta["ns/op"] != -0.2 {
		t.Errorf("Fig6 noise %v delta %v, want noise [class1-goal%%] and an ns/op delta of -0.2", g.Noise, g.Delta)
	}

	// A single run has no spread, so nothing is labelled noise.
	one, _ := Parse(strings.NewReader(sampleOutput))
	addDeltas(one, &File{Benchmarks: []Benchmark{{Name: "ClockThroughput", Procs: 1, Metrics: map[string]float64{"ns/op": 1030}}}})
	if n := one.Benchmarks[0].Noise; n != nil {
		t.Errorf("single-run row labelled noise %v", n)
	}
}
