package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New(nil)
	c := r.Counter("releases_total", "releases")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if again := r.Counter("releases_total", "releases"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative counter add did not panic")
		}
	}()
	New(nil).Counter("c", "").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := New(nil)
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatalf("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestLabelsIdentity(t *testing.T) {
	r := New(nil)
	a := r.Counter("c", "h", L("class", "1"), L("kind", "olap"))
	// Same labels in a different order resolve to the same child.
	b := r.Counter("c", "h", L("kind", "olap"), L("class", "1"))
	if a != b {
		t.Fatalf("label order changed instrument identity")
	}
	c := r.Counter("c", "h", L("class", "2"), L("kind", "olap"))
	if a == c {
		t.Fatalf("distinct labels shared an instrument")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New(nil)
	h := r.Histogram("wait_seconds", "waits", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("sum = %v, want 111.5", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`wait_seconds_bucket{le="1"} 2`, // 0.5 and the boundary value 1
		`wait_seconds_bucket{le="5"} 3`,
		`wait_seconds_bucket{le="10"} 4`,
		`wait_seconds_bucket{le="+Inf"} 5`,
		`wait_seconds_sum 111.5`,
		`wait_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := New(nil)
	for _, bad := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bad)
				}
			}()
			r.Histogram("h", "", bad)
		}()
	}
	r.Histogram("ok", "", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Errorf("bound mismatch on re-registration did not panic")
		}
	}()
	r.Histogram("ok", "", []float64{1, 3})
}

func TestBoundsEqual(t *testing.T) {
	if !boundsEqual([]float64{1, 2.5}, []float64{1, 2.5}) {
		t.Fatalf("identical bounds reported unequal")
	}
	if boundsEqual([]float64{1}, []float64{1, 2}) || boundsEqual([]float64{1}, []float64{2}) {
		t.Fatalf("different bounds reported equal")
	}
}

// TestExpositionDeterministic registers and touches instruments in two
// different orders and requires byte-identical exposition — the registry
// analogue of the experiment layer's serial-vs-parallel guarantee.
func TestExpositionDeterministic(t *testing.T) {
	build := func(reverse bool) string {
		r := New(func() float64 { return 42.5 })
		ops := []func(){
			func() { r.Counter("b_total", "b", L("class", "1")).Add(3) },
			func() { r.Counter("b_total", "b", L("class", "2")).Add(1) },
			func() { r.Gauge("a_depth", "a").Set(7) },
			func() { r.Histogram("c_wait", "c", []float64{1, 10}, L("class", "1")).Observe(2) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fwd, rev := build(false), build(true)
	if fwd != rev {
		t.Fatalf("exposition depends on registration order:\n--- forward\n%s--- reverse\n%s", fwd, rev)
	}
	if !strings.HasPrefix(fwd, "# HELP sim_time_seconds") || !strings.Contains(fwd, "sim_time_seconds 42.5") {
		t.Fatalf("sim_time_seconds missing or not leading:\n%s", fwd)
	}
	// Families must appear in name order after the sim-time stamp.
	ia, ib, ic := strings.Index(fwd, "a_depth"), strings.Index(fwd, "b_total"), strings.Index(fwd, "c_wait")
	if !(ia < ib && ib < ic) {
		t.Fatalf("families not sorted by name:\n%s", fwd)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New(nil)
	r.Counter("c", "h", L("q", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `c{q="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, buf.String())
	}
}

// A value with no backslash, newline or double quote is written as it
// is.
func TestLabelValueWithoutEscapesPassesThrough(t *testing.T) {
	for _, v := range []string{"", "b1", "class 2", "a'b/c\td\u00e9"} {
		if got := escapeLabelValue(v); got != v {
			t.Errorf("escapeLabelValue(%q) = %q, want it unchanged", v, got)
		}
	}
	r := New(nil)
	r.Counter("c", "h", L("q", "b1 x'y")).Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `c{q="b1 x'y"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("unescaped label missing %q:\n%s", want, buf.String())
	}
}
