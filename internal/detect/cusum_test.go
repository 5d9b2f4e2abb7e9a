package detect

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata files from this build's output")

// cusumSeries are population series fed to one class, one observation a
// minute. The golden file holds both CUSUM statistics after every
// observation, so a change to the drift, the threshold or the
// normalisation that moves them by any amount fails TestCUSUMGolden.
var cusumSeries = []struct {
	name string
	pop  []float64
	// peak bounds the largest statistic the series reaches, before any
	// reset: lo < peak ≤ hi.
	lo, hi float64
	shifts int
}{
	// A class through three regimes of a Figure 3 style schedule: a
	// light period, a heavy one and a medium one, with a client more or
	// less now and then.
	{"schedule", []float64{
		3, 3, 4, 3, 3, 2, 3, 3, 4, 3,
		6, 6, 7, 6, 6, 5, 6, 6, 6, 7,
		4, 4, 4, 5, 4, 3, 4, 4, 4, 4,
	}, 0, math.Inf(1), 2},
	// One jump whose statistic peaks just under the threshold (about
	// 3.96): it fires no shift.
	{"below", []float64{10, 11, 9, 10, 11, 9, 10, 10, 13.37}, 3.9, 4, 0},
	// The same prefix and a larger jump (about 4.26): one shift.
	{"above", []float64{10, 11, 9, 10, 11, 9, 10, 10, 13.6}, 4, 4.5, 1},
}

// cusumNext is the statistic an observation of x would leave before any
// reset: the series' premises are stated over it.
func cusumNext(s *classState, x float64) float64 {
	if s.mean.Count() < 3 {
		return 0
	}
	sd := s.mean.StdDev()
	if sd < 1e-9 {
		sd = math.Max(1e-9, math.Abs(s.mean.Mean())*0.1+1e-9)
	}
	z := (x - s.mean.Mean()) / sd
	return math.Max(s.cusumPos+z-cusumDrift, s.cusumNeg-z-cusumDrift)
}

// TestCUSUMGolden pins the detector's CUSUM statistics, observation by
// observation, against testdata/cusum.golden, and checks that each
// series peaks where it claims and fires the shifts it claims.
func TestCUSUMGolden(t *testing.T) {
	var out bytes.Buffer
	for _, sr := range cusumSeries {
		d := New()
		peak := 0.0
		fmt.Fprintf(&out, "# %s\n", sr.name)
		for i, x := range sr.pop {
			if s, ok := d.states[1]; ok {
				peak = max(peak, cusumNext(s, x))
			}
			c := d.Observe(Observation{Time: float64(60 * i), Class: 1, Arrivals: 10,
				MeanCost: 100, Interval: 60, Population: x})
			s := d.states[1]
			fmt.Fprintf(&out, "%d %g %.17g %.17g %t\n", i, x, s.cusumPos, s.cusumNeg, c.Shifted)
		}
		if !(sr.lo < peak && peak <= sr.hi) {
			t.Errorf("%s: statistic peaks at %.17g, want in (%g, %g]", sr.name, peak, sr.lo, sr.hi)
		}
		if n := len(d.Shifts()); n != sr.shifts {
			t.Errorf("%s: %d shifts, want %d", sr.name, n, sr.shifts)
		}
	}
	path := filepath.Join("testdata", "cusum.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("CUSUM statistics differ from %s:\n got:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}
