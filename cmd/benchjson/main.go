// Command benchjson converts `go test -bench` text output into the
// machine-readable BENCH_qsim.json perf trajectory (see README "Benchmark
// trajectory"). scripts/bench.sh is the normal entry point; it pipes the
// benchmark run through this tool and supplies the timestamp and
// toolchain version as flags (this tool itself reads no wall clock, per
// the qlint wallclock invariant).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -count 5 ./... |
//	    benchjson -count 5 -date 2026-08-05T00:00:00Z -go "$(go version)" -o BENCH_qsim.json
//
// With -count N every benchmark must appear N times; its row records the
// median of each unit and the runs' min and max, and a delta to the
// previous file that lies inside that spread is labelled noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// File is the BENCH_qsim.json shape.
type File struct {
	// Format versions the JSON layout.
	Format int `json:"format"`
	// Generated is the RFC 3339 UTC timestamp supplied by the caller.
	Generated string `json:"generated"`
	// Go is the `go version` line of the toolchain that ran the suite.
	Go string `json:"go"`
	// Env echoes the goos/goarch/pkg/cpu header lines of the output.
	Env map[string]string `json:"env"`
	// Benchmarks lists one entry per result line, in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one `BenchmarkName-P  N  <value unit>...` result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// trailing -GOMAXPROCS suffix; sub-benchmarks keep their /path.
	Name string `json:"name"`
	// Procs is the -GOMAXPROCS suffix (1 when the line has none).
	Procs int `json:"procs"`
	// Iterations is b.N (the first run's, when the row folds several).
	Iterations int64 `json:"iterations"`
	// Runs is the number of result lines folded into the row (-count N);
	// absent for a single run.
	Runs int `json:"runs,omitempty"`
	// Metrics maps unit → value for every "<value> <unit>" pair on the
	// line: ns/op, B/op, allocs/op, and all b.ReportMetric units
	// (class1-goal%, events/sec, ...). With several runs the value is
	// their median. encoding/json sorts the keys, so identical runs
	// serialize identically.
	Metrics map[string]float64 `json:"metrics"`
	// Min and Max are each unit's extremes over the runs; absent for a
	// single run.
	Min map[string]float64 `json:"min,omitempty"`
	Max map[string]float64 `json:"max,omitempty"`
	// Delta, when a previous trajectory file is available, maps unit →
	// relative change versus the same-named entry: (new-old)/old, so
	// -0.25 reads "25% less than last run". Units or benchmarks absent
	// from the previous file carry no delta — new benchmarks and new
	// ReportMetric keys are expected as the suite grows, never an error.
	Delta map[string]float64 `json:"delta,omitempty"`
	// Noise lists, sorted, the units whose previous value lies inside
	// this row's [Min, Max]: the runs cannot tell that delta from zero.
	Noise []string `json:"noise,omitempty"`
}

// Aggregate folds each benchmark's count result lines (go test -count)
// into one row, in order of first appearance: the median of every unit,
// plus its min and max when count > 1. A benchmark with another number
// of lines (a truncated or mismatched run) is an error.
func Aggregate(f *File, count int) error {
	if count < 1 {
		return fmt.Errorf("benchjson: -count %d must be >= 1", count)
	}
	type key struct {
		name  string
		procs int
	}
	var order []key
	runs := make(map[key][]Benchmark)
	for _, b := range f.Benchmarks {
		k := key{b.Name, b.Procs}
		if _, ok := runs[k]; !ok {
			order = append(order, k)
		}
		runs[k] = append(runs[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		if len(rs) != count {
			return fmt.Errorf("benchjson: %s has %d result lines, want -count %d", k.name, len(rs), count)
		}
		if count == 1 {
			out = append(out, rs[0])
			continue
		}
		row := Benchmark{Name: k.name, Procs: k.procs, Iterations: rs[0].Iterations, Runs: count,
			Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{}}
		for unit := range rs[0].Metrics {
			vs := make([]float64, 0, count)
			for _, r := range rs {
				v, ok := r.Metrics[unit]
				if !ok {
					return fmt.Errorf("benchjson: %s: unit %s missing from a run", k.name, unit)
				}
				vs = append(vs, v)
			}
			slices.Sort(vs)
			row.Metrics[unit] = median(vs)
			row.Min[unit], row.Max[unit] = vs[0], vs[len(vs)-1]
		}
		out = append(out, row)
	}
	f.Benchmarks = out
	return nil
}

// median of sorted, non-empty vs: the mean of the middle two for an
// even count.
func median(vs []float64) float64 {
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// addDeltas annotates cur's benchmarks with their relative change vs the
// same-named (name, procs) entry of a previous trajectory file.
func addDeltas(cur, prev *File) {
	type key struct {
		name  string
		procs int
	}
	byName := make(map[key]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		byName[key{b.Name, b.Procs}] = b
	}
	for i := range cur.Benchmarks {
		b := &cur.Benchmarks[i]
		p, ok := byName[key{b.Name, b.Procs}]
		if !ok {
			continue
		}
		for unit, v := range b.Metrics {
			old, ok := p.Metrics[unit]
			if !ok || old == 0 {
				continue
			}
			if b.Delta == nil {
				b.Delta = make(map[string]float64)
			}
			b.Delta[unit] = (v - old) / old
			if lo, ok := b.Min[unit]; ok && lo <= old && old <= b.Max[unit] {
				b.Noise = append(b.Noise, unit)
			}
		}
		slices.Sort(b.Noise)
	}
}

// Parse reads `go test -bench` output. Non-benchmark lines (PASS, ok,
// test logs) are skipped; header lines fill Env.
func Parse(r io.Reader) (*File, error) {
	f := &File{Format: 1, Env: map[string]string{}, Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				f.Env[key] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "name N value unit [value unit]..."; a bare
		// "BenchmarkFoo" line (b.Run header) has no fields to parse.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		b, err := parseResult(fields)
		if err != nil {
			return nil, fmt.Errorf("benchjson: %q: %w", line, err)
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: read: %w", err)
	}
	return f, nil
}

func parseResult(fields []string) (Benchmark, error) {
	b := Benchmark{
		Name:    strings.TrimPrefix(fields[0], "Benchmark"),
		Procs:   1,
		Metrics: make(map[string]float64, (len(fields)-2)/2),
	}
	// Split the trailing -GOMAXPROCS suffix, if numeric.
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return b, fmt.Errorf("iterations: %w", err)
	}
	b.Iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return b, fmt.Errorf("metric %s: %w", fields[i+1], err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}

// loadPrev reads a previous trajectory file, returning nil and a reason
// when there is no usable baseline: the file is missing (first run),
// empty (interrupted write), unparseable, or carries no benchmarks.
func loadPrev(path string) (*File, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Sprintf("no baseline at %s", path)
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil, fmt.Sprintf("baseline %s is empty", path)
	}
	var pf File
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Sprintf("baseline %s unparseable: %v", path, err)
	}
	if len(pf.Benchmarks) == 0 {
		return nil, fmt.Sprintf("baseline %s has no benchmarks", path)
	}
	return &pf, ""
}

// notice reports a non-fatal condition: as a GitHub Actions annotation
// when running in CI (so it surfaces on the workflow summary without
// failing the job), as a plain stderr line otherwise.
func notice(msg string) {
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		fmt.Printf("::notice title=benchjson::%s\n", msg)
		return
	}
	fmt.Fprintln(os.Stderr, "benchjson:", msg)
}

func main() {
	date := flag.String("date", "", "RFC 3339 UTC timestamp to record (supplied by scripts/bench.sh)")
	goVersion := flag.String("go", "", "`go version` line to record")
	out := flag.String("o", "", "output path (default stdout)")
	prev := flag.String("prev", "", "previous trajectory JSON to diff against (default: the existing -o file)")
	count := flag.Int("count", 1, "result lines per benchmark (the go test -count the input was run with)")
	flag.Parse()

	f, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(f.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
	if err := Aggregate(f, *count); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Generated = *date
	f.Go = *goVersion

	// Diff against the previous trajectory before overwriting it. A
	// missing, empty, or unparseable baseline is never fatal — a fresh
	// checkout has no history, and a truncated file from an interrupted
	// run must not block recording a new trajectory point. The deltas are
	// simply skipped (the Delta sections only appear when a baseline
	// exists) and the reason is reported as a non-fatal annotation.
	prevPath := *prev
	if prevPath == "" {
		prevPath = *out
	}
	if prevPath != "" {
		if pf, reason := loadPrev(prevPath); pf != nil {
			addDeltas(f, pf)
		} else {
			notice(fmt.Sprintf("skipping deltas: %s", reason))
		}
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
