package detect

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/simclock"
)

func observe(d *Detector, class engine.ClassID, t simclock.Time, arrivals int, cost float64) Characterization {
	return d.Observe(Observation{
		Time:     t,
		Class:    class,
		Arrivals: arrivals,
		MeanCost: cost,
		Interval: 60,
	})
}

func TestCharacterizationConverges(t *testing.T) {
	d := New()
	var char Characterization
	for i := 0; i < 30; i++ {
		char = observe(d, 1, float64(i*60), 120, 4000) // 2/s at 4000 timerons
	}
	if math.Abs(char.ArrivalRate-2) > 0.05 {
		t.Fatalf("arrival rate = %v, want ~2/s", char.ArrivalRate)
	}
	if math.Abs(char.MeanCost-4000) > 1 {
		t.Fatalf("mean cost = %v", char.MeanCost)
	}
	if math.Abs(char.DemandRate-8000) > 200 {
		t.Fatalf("demand rate = %v, want ~8000 timerons/s", char.DemandRate)
	}
	if math.Abs(char.Trend) > 1e-3 {
		t.Fatalf("trend = %v on a steady workload", char.Trend)
	}
	if char.Intervals != 30 {
		t.Fatalf("intervals = %d", char.Intervals)
	}
}

func TestClassesAreIndependent(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		observe(d, 1, float64(i*60), 60, 1000)
		observe(d, 2, float64(i*60), 600, 10)
	}
	c1 := d.Characterization(1)
	c2 := d.Characterization(2)
	if math.Abs(c1.ArrivalRate-1) > 0.1 || math.Abs(c2.ArrivalRate-10) > 1 {
		t.Fatalf("rates = %v / %v", c1.ArrivalRate, c2.ArrivalRate)
	}
}

func TestUnknownClassZeroValue(t *testing.T) {
	d := New()
	c := d.Characterization(9)
	if c.Intervals != 0 || c.ArrivalRate != 0 {
		t.Fatal("unknown class not zero-valued")
	}
	f := d.Forecast(9, 60)
	if f.ArrivalRate != 0 || f.Confidence != 0 {
		t.Fatal("unknown class forecast not zero-valued")
	}
}

func TestShiftDetection(t *testing.T) {
	d := New()
	// Stable regime, then a 3x intensity jump (a Figure 3 period
	// boundary). The CUSUM should fire within a few intervals.
	tick := 0
	for ; tick < 20; tick++ {
		observe(d, 1, float64(tick*60), 100, 1000)
	}
	for ; tick < 30; tick++ {
		observe(d, 1, float64(tick*60), 300, 1000)
	}
	shifts := d.Shifts()
	if len(shifts) == 0 {
		t.Fatal("3x intensity jump not detected")
	}
	up := shifts[0]
	if up.Direction != 1 {
		t.Fatalf("direction = %d, want +1", up.Direction)
	}
	if up.Time < 20*60 || up.Time > 26*60 {
		t.Fatalf("detected at %v, want shortly after t=1200", up.Time)
	}
	// After the shift the characterization re-converges to the new rate.
	c := d.Characterization(1)
	if math.Abs(c.ArrivalRate-5) > 0.5 {
		t.Fatalf("post-shift rate = %v, want ~5/s", c.ArrivalRate)
	}
}

func TestDownwardShiftDetection(t *testing.T) {
	d := New()
	tick := 0
	for ; tick < 20; tick++ {
		observe(d, 1, float64(tick*60), 300, 1000)
	}
	for ; tick < 30; tick++ {
		observe(d, 1, float64(tick*60), 60, 1000)
	}
	found := false
	for _, s := range d.Shifts() {
		if s.Direction == -1 {
			found = true
		}
	}
	if !found {
		t.Fatal("5x intensity drop not detected")
	}
}

func TestNoFalseAlarmsOnSteadyLoad(t *testing.T) {
	d := New()
	// Mild noise around a constant rate.
	counts := []int{100, 104, 97, 101, 99, 103, 98, 100, 102, 96}
	for i := 0; i < 50; i++ {
		observe(d, 1, float64(i*60), counts[i%len(counts)], 1000)
	}
	if n := len(d.Shifts()); n != 0 {
		t.Fatalf("%d false alarms on steady load", n)
	}
}

func TestTrendOnRamp(t *testing.T) {
	d := New()
	var char Characterization
	for i := 0; i < 8; i++ {
		// Arrivals grow every interval: 60, 120, 180, ...
		char = observe(d, 1, float64(i*60), 60*(i+1), 1000)
	}
	if char.Trend <= 0 {
		t.Fatalf("trend = %v on a ramp, want positive", char.Trend)
	}
	fc := d.Forecast(1, 60)
	if fc.ArrivalRate <= char.ArrivalRate {
		t.Fatal("forecast should extrapolate the ramp upward")
	}
}

func TestForecastConfidenceDropsAfterShift(t *testing.T) {
	d := New()
	tick := 0
	for ; tick < 25; tick++ {
		observe(d, 1, float64(tick*60), 100, 1000)
	}
	before := d.Forecast(1, 60).Confidence
	for ; tick < 40 && len(d.Shifts()) == 0; tick++ {
		observe(d, 1, float64(tick*60), 500, 1000)
	}
	if len(d.Shifts()) == 0 {
		t.Fatal("shift not detected")
	}
	observe(d, 1, float64(tick*60), 500, 1000)
	after := d.Forecast(1, 60).Confidence
	if after >= before {
		t.Fatalf("confidence %v -> %v should fall after a shift", before, after)
	}
}

func TestForecastNeverNegative(t *testing.T) {
	d := New()
	// Steep downward ramp.
	for i := 0; i < 8; i++ {
		observe(d, 1, float64(i*60), 800-i*100, 1000)
	}
	fc := d.Forecast(1, 600) // long horizon to force extrapolation below 0
	if fc.ArrivalRate < 0 || fc.DemandRate < 0 {
		t.Fatalf("negative forecast %+v", fc)
	}
}

func TestZeroArrivalIntervalsKeepCost(t *testing.T) {
	d := New()
	observe(d, 1, 0, 100, 2500)
	observe(d, 1, 60, 0, 0) // idle interval: no cost sample
	c := d.Characterization(1)
	if c.MeanCost != 2500 {
		t.Fatalf("idle interval corrupted cost: %v", c.MeanCost)
	}
}

func TestInvalidIntervalPanics(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	d.Observe(Observation{Class: 1, Interval: 0})
}
