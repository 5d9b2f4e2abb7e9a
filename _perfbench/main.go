// Command perfbench is the repository's benchmark. One invocation runs
// one named workload in a fresh process, checks its simulated outputs
// against pinned digests, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) as the last line of standard output:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"cpu_ns_per_query": {"value": 612.5, "unit": "ns"}, ...}}
//
// Host time is process CPU time (getrusage user+sys), normalised by a
// reference kernel (see hostSpeed). Wall and steal seconds are printed
// on a context line above the result, never as metrics. See README.md
// for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"cpu_ns_per_query", "ns", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"bytes_per_query", "B", "lower"},
	{"allocs_per_query", "count", "lower"},
	{"slo_attainment", "ratio", "higher"},
	{"olap_velocity", "ratio", "higher"},
	{"oltp_rt_ms", "ms", "lower"},
	{"delivered_ratio", "ratio", "higher"},
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// exitUsage is the exit code for bad flags or an unknown workload.
const exitUsage = 2

func main() {
	workloadName := flag.String("workload", "", "workload to run: paper-qs, paper-qs-observed or fleet4-faults")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "CPU seconds to spend measuring")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the timed end-to-end run")
	pin := flag.String("pin", "", "print pinned-digest entries for a seed range such as 0-31, then exit")
	flag.Parse()

	// The simulation is single-threaded. One P keeps the garbage
	// collector's idle-time workers off a second vCPU, whose CPU time
	// would otherwise be charged to the run at the scheduler's whim.
	runtime.GOMAXPROCS(1)

	if *pin != "" {
		if err := printPins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(exitUsage)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(exitUsage)
	}

	wall0 := time.Now()
	steal0, stealOK := stealSeconds()
	cpu0 := cpuNow()
	var res result
	if *traced == 1 {
		res, err = runLedger(w, *seed, *seconds)
	} else {
		res, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cpu := float64(cpuNow()-cpu0) / 1e9
	steal := "n/a"
	if s1, ok := stealSeconds(); ok && stealOK {
		steal = fmt.Sprintf("%.2f", s1-steal0)
	}
	fmt.Printf("context (not metrics): workload=%s seed=%d trace=%d cpu_s=%.2f wall_s=%.2f steal_s=%s\n",
		w.name, *seed, *traced, cpu, time.Since(wall0).Seconds(), steal)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, m.Value)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metricsOf attaches units to raw values, rejecting any name the
// definitions do not list and any listed name left unset.
func metricsOf(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s has no definition", name)
			}
		}
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
