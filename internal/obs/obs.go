// Package obs is the simulation's metrics registry: counters, gauges,
// and fixed-bucket histograms with labels, rendered as Prometheus-style
// text exposition. It is the numeric half of the observability layer
// (internal/trace is the event half): controllers and the experiment
// harness register instruments once and bump them on the hot path, and
// a run's final exposition is a machine-readable summary of controller
// behaviour — releases, holds, admission waits, prediction error.
//
// Determinism rules (enforced tree-wide by cmd/qlint):
//
//   - No wall clock. The registry's only notion of time is the virtual
//     sim-time source handed to New; exposition stamps sim_time_seconds,
//     never the host clock.
//   - No global state. Every run owns its registry, exactly as it owns
//     its simclock.Clock — the parallel experiment runner's isolation
//     invariant (internal/experiment/parallel.go) extends to metrics.
//     A Registry is not safe for concurrent use.
//   - Sorted exposition. Families render in name order and children in
//     label order, so two runs of the same seed produce byte-identical
//     text whatever order instruments were registered or touched in.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one name="value" pair qualifying an instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates instrument families.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// child is one labelled instrument inside a family.
type child struct {
	labels string // rendered {k="v",...} suffix, "" when unlabelled
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups all children sharing one metric name.
type family struct {
	name     string
	help     string
	kind     kind
	bounds   []float64 // histogram families only
	children map[string]*child
}

// Registry holds a run's instruments. The zero value is not usable;
// construct with New.
type Registry struct {
	now      func() float64 // sim-time source; may be nil
	families map[string]*family
}

// New returns an empty registry. now, when non-nil, supplies the virtual
// time stamped into the exposition as sim_time_seconds; pass the owning
// run's clock.Now. Wall-clock sources are forbidden (and would not get
// past qlint).
func New(now func() float64) *Registry {
	return &Registry{now: now, families: make(map[string]*family)}
}

// family returns the named family, creating it on first use and
// verifying help/kind consistency on re-registration.
func (r *Registry) familyFor(name, help string, k kind) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered with different help", name))
	}
	return f
}

// childFor returns the labelled child of f, creating it on first use.
func (f *family) childFor(labels []Label) *child {
	key := renderLabels(labels)
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: key}
		f.children[key] = c
	}
	return c
}

// renderLabels serializes labels sorted by key into the exposition
// suffix — the child's identity within its family.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		if l.Key == "" {
			panic("obs: empty label key")
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper applies the Prometheus text-format escapes. A Replacer
// is safe for concurrent use, so parallel runs share this one.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// escapeLabelValue applies the Prometheus text-format escapes; a value
// with nothing to escape is returned as it is.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	return labelEscaper.Replace(v)
}

// Counter is a monotonically increasing value.
type Counter struct {
	v float64
}

// Inc adds 1.
//
//qlint:hotpath
func (c *Counter) Inc() { c.v++ }

// Add increases the counter; negative deltas are a bug.
//
//qlint:hotpath
func (c *Counter) Add(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("obs: counter add %v", d))
	}
	c.v += d
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Counter returns the counter with the given name and labels, creating
// it on first use.
//
//qlint:coldpath metric registration is construction; steady-state code caches the returned handle
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ch := r.familyFor(name, help, counterKind).childFor(labels)
	if ch.ctr == nil {
		ch.ctr = &Counter{}
	}
	return ch.ctr
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v float64
}

// Set assigns the gauge.
//
//qlint:hotpath
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the gauge by d (negative allowed).
//
//qlint:hotpath
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	ch := r.familyFor(name, help, gaugeKind).childFor(labels)
	if ch.gauge == nil {
		ch.gauge = &Gauge{}
	}
	return ch.gauge
}

// Histogram counts observations into fixed buckets. Buckets are
// cumulative in the exposition (le="x" counts observations <= x), with
// an implicit +Inf bucket equal to the total count.
type Histogram struct {
	bounds []float64 // strictly increasing, finite
	counts []uint64  // len(bounds)+1; last is the +Inf overflow
	sum    float64
	n      uint64
}

// Observe records one value.
//
//qlint:hotpath
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		panic("obs: histogram observe NaN")
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Histogram returns the histogram with the given name, bucket upper
// bounds, and labels, creating it on first use. Bounds must be finite
// and strictly increasing; re-registration must carry identical bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q has no buckets", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %q bound %v is not finite", name, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing at %v", name, b))
		}
	}
	f := r.familyFor(name, help, histogramKind)
	if f.bounds == nil {
		f.bounds = append([]float64(nil), bounds...)
	} else if !boundsEqual(f.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	ch := f.childFor(labels)
	if ch.hist == nil {
		ch.hist = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	return ch.hist
}

// boundsEqual reports whether two bucket-boundary slices are identical.
// Exact float comparison is correct here: bounds are configuration
// literals checked for identity, not computed quantities compared for
// closeness. The function is allowlisted for qlint's floateq check
// (lint.DefaultConfig), so bucket plumbing needs no per-site
// //lint:ignore directives.
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DefaultDurationBuckets spans sub-second OLTP latencies through
// multi-hour OLAP admission waits (seconds).
func DefaultDurationBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}
}

// DefaultErrorBuckets covers relative and small absolute model errors.
func DefaultErrorBuckets() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}
}

// formatValue renders a sample value exactly (shortest round-trip form),
// so the exposition is byte-deterministic for identical runs.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in Prometheus text exposition format.
// Output is byte-deterministic: families sort by name, children by label
// string. When the registry has a time source, a sim_time_seconds gauge
// stamped from it leads the exposition.
func (r *Registry) WriteText(w io.Writer) error {
	var names []string
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	if r.now != nil {
		b.WriteString("# HELP sim_time_seconds Virtual time at exposition, in seconds since simulation start.\n")
		b.WriteString("# TYPE sim_time_seconds gauge\n")
		fmt.Fprintf(&b, "sim_time_seconds %s\n", formatValue(r.now()))
	}
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		var keys []string
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ch := f.children[k]
			switch f.kind {
			case counterKind:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ch.labels, formatValue(ch.ctr.v))
			case gaugeKind:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ch.labels, formatValue(ch.gauge.v))
			case histogramKind:
				writeHistogram(&b, f, ch)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram child: cumulative buckets, +Inf,
// sum, and count, each carrying the child's labels plus le.
func writeHistogram(b *strings.Builder, f *family, ch *child) {
	h := ch.hist
	withLE := func(le string) string {
		if ch.labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return ch.labels[:len(ch.labels)-1] + fmt.Sprintf(",le=%q}", le)
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, ch.labels, formatValue(h.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, ch.labels, h.n)
}
