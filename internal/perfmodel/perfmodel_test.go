package perfmodel

import (
	"math"
	"testing"
)

func TestOLAPVelocityScalesProportionally(t *testing.T) {
	m := OLAPVelocity{}
	if got := m.Predict(0.4, 1000, 2000); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Predict = %v, want 0.8", got)
	}
	if got := m.Predict(0.4, 1000, 500); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Predict = %v, want 0.2", got)
	}
}

func TestOLAPVelocityCapsAtOne(t *testing.T) {
	m := OLAPVelocity{}
	if got := m.Predict(0.8, 1000, 5000); got != 1 {
		t.Fatalf("Predict = %v, want cap at 1", got)
	}
}

func TestOLAPVelocityZeroLimits(t *testing.T) {
	m := OLAPVelocity{}
	if got := m.Predict(0.5, 0, 1000); got != 0.5 {
		t.Fatalf("no-history prediction = %v, want measured value", got)
	}
	if got := m.Predict(0.5, 0, 0); got != 0 {
		t.Fatalf("zero-limit prediction = %v, want 0", got)
	}
	if got := m.Predict(0.5, 1000, 0); got != 0 {
		t.Fatalf("zero new limit = %v, want 0", got)
	}
}

func TestOLAPVelocityFloorEnablesRecovery(t *testing.T) {
	m := OLAPVelocity{Floor: 0.05}
	// A starved class measured at velocity 0 must still predict gains
	// from a larger limit.
	if got := m.Predict(0, 500, 5000); got <= 0 {
		t.Fatalf("floored prediction = %v, want positive", got)
	}
	bare := OLAPVelocity{}
	if got := bare.Predict(0, 500, 5000); got != 0 {
		t.Fatalf("unfloored model should stay at 0, got %v", got)
	}
}

func TestOLTPModelUsesPriorUntilEnoughData(t *testing.T) {
	cfg := DefaultOLTPConfig()
	m := NewOLTPResponse(cfg)
	if m.Slope() != priorSlope {
		t.Fatal("empty model must use prior slope")
	}
	m.Observe(Sample{Limit: 1000, Value: 0.3})
	m.Observe(Sample{Limit: 2000, Value: 0.28})
	if m.Slope() != priorSlope {
		t.Fatal("below MinPoints must still use prior")
	}
}

func TestOLTPModelLearnsSlope(t *testing.T) {
	cfg := DefaultOLTPConfig()
	m := NewOLTPResponse(cfg)
	// t = 0.4 - 1e-5 * C : raising the OLTP limit lowers response time.
	for _, c := range []float64{1000, 3000, 5000, 8000, 12000, 15000} {
		m.Observe(Sample{Limit: c, Value: 0.4 - 1e-5*c})
	}
	if got := m.Slope(); math.Abs(got+1e-5) > 1e-9 {
		t.Fatalf("learned slope = %v, want -1e-5", got)
	}
	// Prediction anchored at the last measurement.
	got := m.Predict(0.3, 10000, 15000)
	want := 0.3 + (-1e-5)*5000
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
}

func TestOLTPModelRejectsPositiveSlope(t *testing.T) {
	cfg := DefaultOLTPConfig()
	m := NewOLTPResponse(cfg)
	for _, c := range []float64{1000, 3000, 5000, 8000} {
		m.Observe(Sample{Limit: c, Value: 0.1 + 1e-5*c}) // noise artifact: wrong sign
	}
	if m.Slope() != priorSlope {
		t.Fatalf("positive fitted slope must fall back to prior, got %v", m.Slope())
	}
}

func TestOLTPModelRejectsWildSlope(t *testing.T) {
	m := NewOLTPResponse(DefaultOLTPConfig())
	for i, c := range []float64{1000, 1001, 1002, 1003} {
		m.Observe(Sample{Limit: c, Value: 10 - float64(i)*3}) // -3 s/timeron: far past maxAbsSlope
	}
	if m.Slope() != priorSlope {
		t.Fatalf("wild slope must fall back to prior, got %v", m.Slope())
	}
}

func TestOLTPModelWindowEviction(t *testing.T) {
	cfg := DefaultOLTPConfig()
	cfg.Window = 4 // minPoints: fitted only from a full window
	m := NewOLTPResponse(cfg)
	// Old regime with slope -2e-5, then a new regime with slope -5e-6;
	// after eviction only the new regime should matter.
	for _, c := range []float64{1000, 2000, 3000, 4000} {
		m.Observe(Sample{Limit: c, Value: 0.5 - 2e-5*c})
	}
	for _, c := range []float64{5000, 6000, 7000, 8000} {
		m.Observe(Sample{Limit: c, Value: 0.3 - 5e-6*c})
	}
	if got := m.Slope(); math.Abs(got+5e-6) > 1e-9 {
		t.Fatalf("slope after regime change = %v, want -5e-6", got)
	}
	if m.reg.Len() != 4 {
		t.Fatalf("window holds %d points, want 4", m.reg.Len())
	}
}

func TestOLTPModelIgnoresBadObservations(t *testing.T) {
	m := NewOLTPResponse(DefaultOLTPConfig())
	m.Observe(Sample{Limit: math.NaN(), Value: 0.3})
	m.Observe(Sample{Limit: 1000, Value: math.NaN()})
	m.Observe(Sample{Limit: 1000, Value: -1})
	if m.reg.Len() != 0 {
		t.Fatalf("bad observations stored: %d", m.reg.Len())
	}
}

func TestOLTPPredictNeverNegative(t *testing.T) {
	m := NewOLTPResponse(DefaultOLTPConfig())
	if got := m.Predict(0.01, 0, 1e9); got < 0 {
		t.Fatalf("Predict = %v, must clamp at 0", got)
	}
}

func TestOLTPConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny window did not panic")
		}
	}()
	NewOLTPResponse(OLTPConfig{Window: 1})
}

// Validate names every config NewOLTP refuses; each one it accepts
// builds.
func TestOLTPConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*OLTPConfig)
		want string // "" = valid
	}{
		{"default", func(*OLTPConfig) {}, ""},
		{"linear by name", func(c *OLTPConfig) { c.Model = LinearModel }, ""},
		{"throughput", func(c *OLTPConfig) { c.Model = ThroughputModel }, ""},
		{"MinPoints equal to the window", func(c *OLTPConfig) { c.Window = 4 }, ""},
		{"window of 1", func(c *OLTPConfig) { c.Window = 1 }, "perfmodel: OLTP window 1 must be at least 2"},
		{"window below MinPoints", func(c *OLTPConfig) { c.Window = 3 },
			"perfmodel: OLTP MinPoints 4 exceeds the window 3, so the slope would never be fitted"},
		{"unknown model", func(c *OLTPConfig) { c.Model = "oltp-neural" },
			`perfmodel: unknown OLTP model "oltp-neural"; choose oltp-linear or oltp-throughput`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultOLTPConfig()
			tc.edit(&cfg)
			got := ""
			if err := cfg.Validate(); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("Validate() = %q, want %q", got, tc.want)
			}
			p, lin, err := NewOLTP(cfg)
			if (err == nil) != (tc.want == "") {
				t.Fatalf("NewOLTP error %v, Validate %q", err, got)
			}
			if err == nil && (p == nil || lin == nil) {
				t.Fatal("NewOLTP built no model")
			}
		})
	}
}

// NewOLTP builds the model the config names, over one linear model.
func TestNewOLTPNamesItsModel(t *testing.T) {
	cfg := DefaultOLTPConfig()
	p, lin, err := NewOLTP(cfg)
	if err != nil || p != Predictor(lin) {
		t.Fatalf("linear: predictor %v, linear %v, err %v", p, lin, err)
	}
	cfg.Model = ThroughputModel
	p, lin, err = NewOLTP(cfg)
	tp, ok := p.(*OLTPThroughput)
	if err != nil || !ok || tp.fallback != lin {
		t.Fatalf("throughput: predictor %T, err %v; want an *OLTPThroughput over the returned linear model", p, err)
	}
}

// Slope, Predict and Name only read: a model queried any number of times
// between observations keeps the slope of one never queried, bit for
// bit, through a window that becomes unfittable and falls back on the
// last fit.
func TestOLTPResponseReadsDoNotChangeState(t *testing.T) {
	cfg := DefaultOLTPConfig()
	cfg.Window = 6
	cfg.FallbackToLastFit = true
	queried, quiet := NewOLTPResponse(cfg), NewOLTPResponse(cfg)
	var samples []Sample
	for i, c := range []float64{1000, 3000, 5000, 8000, 12000, 15000, 4000, 11000} {
		samples = append(samples, Sample{Limit: c, Value: 0.4 - 1e-5*c + 0.003*float64(i%3), Population: 20})
	}
	for i := 0; i < 6; i++ { // six at one limit: the window cannot be fitted
		samples = append(samples, Sample{Limit: 9000, Value: 0.31 + 0.001*float64(i), Population: 20})
	}
	for _, s := range samples {
		queried.Observe(s)
		quiet.Observe(s)
		for k := 0; k < 5; k++ {
			queried.Slope()
			queried.Name()
			queried.Predict(s.Value, s.Limit, s.Limit+500*float64(k))
		}
	}
	got, want := queried.Slope(), quiet.Slope()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("queried model's slope %v, quiet model's %v", got, want)
	}
	if want == priorSlope {
		t.Fatal("the unfittable window fell back to the prior, not the last fit")
	}
	if a, b := queried.Predict(0.3, 9000, 12000), quiet.Predict(0.3, 9000, 12000); a != b {
		t.Fatalf("predictions differ: %v vs %v", a, b)
	}
}

func TestOLTPModelFallsBackToLastFit(t *testing.T) {
	cfg := DefaultOLTPConfig()
	cfg.Window = 6
	cfg.FallbackToLastFit = true
	m := NewOLTPResponse(cfg)
	// A clean window establishes a usable fit.
	for _, c := range []float64{1000, 3000, 5000, 8000, 12000, 15000} {
		m.Observe(Sample{Limit: c, Value: 0.4 - 1e-5*c})
	}
	if got := m.Slope(); math.Abs(got+1e-5) > 1e-9 {
		t.Fatalf("learned slope = %v, want -1e-5", got)
	}
	// A fault window then degenerates the regression: six observations
	// all at the same limit leave the slope unidentifiable. The fit to
	// fall back on is the last window that still had two limits,
	// {15000, 9000×5}, whose slope is (0.25 − 0.312)/6000.
	for i := 0; i < 5; i++ {
		m.Observe(Sample{Limit: 9000, Value: 0.31 + 0.001*float64(i)})
	}
	last := m.Slope()
	if math.Abs(last+0.062/6000) > 1e-9 {
		t.Fatalf("last fittable window's slope = %v, want %v", last, -0.062/6000)
	}
	m.Observe(Sample{Limit: 9000, Value: 0.315})
	if got := m.Slope(); got != last {
		t.Fatalf("ill-conditioned window returned %v, want last fit %v", got, last)
	}
}

func TestOLTPModelFallbackDefaultsToPrior(t *testing.T) {
	cfg := DefaultOLTPConfig()
	cfg.Window = 6
	m := NewOLTPResponse(cfg)
	for _, c := range []float64{1000, 3000, 5000, 8000, 12000, 15000} {
		m.Observe(Sample{Limit: c, Value: 0.4 - 1e-5*c})
	}
	for i := 0; i < 6; i++ {
		m.Observe(Sample{Limit: 9000, Value: 0.31 + 0.001*float64(i)})
	}
	// Paper-faithful default: the cold-start prior, not the stale fit.
	if got := m.Slope(); got != priorSlope {
		t.Fatalf("default fallback = %v, want prior %v", got, priorSlope)
	}
}
