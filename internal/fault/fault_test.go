package fault

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/simclock"
)

func newBench() (*engine.Engine, *simclock.Clock) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 100, IOCapacity: 100}, clock)
	return eng, clock
}

func cpuQuery(class engine.ClassID, work float64) *engine.Query {
	return &engine.Query{Class: class, Cost: work * 10, Demand: engine.Demand{Work: work, CPURate: 1}}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := map[string]Plan{
		"abort rate > 1":    {AbortRate: map[engine.ClassID]float64{1: 1.5}},
		"negative rate":     {AbortRate: map[engine.ClassID]float64{1: -0.1}},
		"negative class":    {AbortRate: map[engine.ClassID]float64{-1: 0.1}},
		"class too large":   {AbortRate: map[engine.ClassID]float64{MaxAbortClass + 1: 0.1}},
		"inverted window":   {AbortBursts: []Burst{{Window: Window{Start: 10, End: 5}, Rate: 0.5}}},
		"empty window":      {SnapshotOutages: []Window{{Start: 5, End: 5}}},
		"burst rate":        {AbortBursts: []Burst{{Window: Window{Start: 0, End: 1}, Rate: 2}}},
		"misestimate inf":   {Misestimate: map[engine.ClassID]float64{1: -1}},
		"slowdown factor":   {Slowdowns: []Slowdown{{Window: Window{Start: 0, End: 1}, Factor: 1}}},
		"slowdown overlap":  {Slowdowns: []Slowdown{{Window: Window{Start: 0, End: 10}, Factor: 0.5}, {Window: Window{Start: 5, End: 15}, Factor: 0.5}}},
		"snapshot drop > 1": {SnapshotDrop: 1.5},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if err := (Plan{AbortRate: map[engine.ClassID]float64{0: 0.1, MaxAbortClass: 0.2}}).Validate(); err != nil {
		t.Errorf("abort rates for classes 0 and MaxAbortClass rejected: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Error("zero plan not Empty")
	}
	if (Plan{SnapshotDrop: 0.1}).Empty() {
		t.Error("snapshot-drop plan reported Empty")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := `{
		"seed": 7,
		"abort_rate": {"1": 0.15, "2": 0.2},
		"abort_bursts": [{"start": 100, "end": 200, "class": 2, "rate": 0.8}],
		"misestimate": {"1": 3},
		"slowdowns": [{"start": 300, "end": 400, "factor": 0.25}],
		"snapshot_drop": 0.5,
		"snapshot_outages": [{"start": 500, "end": 600}],
		"harvest_outages": [{"start": 500, "end": 600}]
	}`
	p, err := ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.AbortRate[1] != 0.15 || p.AbortRate[2] != 0.2 {
		t.Fatalf("plan = %+v", p)
	}
	if len(p.AbortBursts) != 1 || p.AbortBursts[0].Class != 2 || p.AbortBursts[0].Rate != 0.8 {
		t.Fatalf("bursts = %+v", p.AbortBursts)
	}
	if p.Misestimate[1] != 3 || len(p.Slowdowns) != 1 || p.Slowdowns[0].Factor != 0.25 {
		t.Fatalf("plan = %+v", p)
	}
	if p.SnapshotDrop != 0.5 || len(p.SnapshotOutages) != 1 || len(p.HarvestOutages) != 1 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"seed": 1, "abort_rte": {}}`,
		"non-int class":   `{"abort_rate": {"one": 0.1}}`,
		"invalid rate":    `{"abort_rate": {"1": 7}}`,
		"not json":        `{`,
		"overlap windows": `{"slowdowns": [{"start":0,"end":10,"factor":0.5},{"start":5,"end":15,"factor":0.5}]}`,
	}
	for name, in := range cases {
		if _, err := ParseSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A class key spelled twice ("1" and "01") resolves to the last one in
// the document on every parse, never to whichever Go's map order
// happens to visit last.
func TestParseSpecDuplicateClassKeyLastWins(t *testing.T) {
	for i := 0; i < 200; i++ {
		p, err := ParseSpec(strings.NewReader(`{"abort_rate":{"1":0.1,"01":0.2}}`))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.AbortRate[1]; got != 0.2 {
			t.Fatalf("parse %d: class 1 abort rate %v, want the last key's 0.2", i, got)
		}
	}
}

// Plan is the spec file format, so every exported field reachable from
// it carries a json tag, or is the embedded Window that JSON writes
// flat: a new field cannot ship that no file can set.
func TestPlanFieldsAreSettableFromJSON(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Map, reflect.Pointer, reflect.Slice:
			walk(typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					continue
				}
				if _, ok := f.Tag.Lookup("json"); !ok && !(f.Anonymous && f.Type == reflect.TypeOf(Window{})) {
					t.Errorf("%s.%s has no json tag", typ.Name(), f.Name)
				}
				walk(f.Type)
			}
		}
	}
	walk(reflect.TypeOf(Plan{}))
	if len(seen) < 7 { // Plan, Window, Burst, Slowdown and the three backend faults
		t.Errorf("walked %d struct types, want at least 7", len(seen))
	}
}

func TestMisestimateRewritesDemandOnceOnly(t *testing.T) {
	eng, clock := newBench()
	inj := NewInjector(Plan{Misestimate: map[engine.ClassID]float64{1: 3}}, clock)
	inj.AttachEngine(eng)
	fresh := cpuQuery(1, 10)
	retry := cpuQuery(1, 10)
	retry.Attempt = 1
	other := cpuQuery(2, 10)
	eng.Submit(fresh)
	eng.Submit(retry)
	eng.Submit(other)
	if fresh.Demand.Work != 30 {
		t.Fatalf("fresh work = %v, want 30", fresh.Demand.Work)
	}
	if retry.Demand.Work != 10 {
		t.Fatalf("retry work rewritten to %v; retries must keep their demand", retry.Demand.Work)
	}
	if other.Demand.Work != 10 {
		t.Fatalf("unlisted class rewritten to %v", other.Demand.Work)
	}
	if s := inj.Stats(); s.Misestimates != 1 || s.Total() != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAbortDrawsAreDeterministicAndMidFlight(t *testing.T) {
	run := func() (aborts uint64, failTimes []float64) {
		eng, clock := newBench()
		inj := NewInjector(Plan{Seed: 42, AbortRate: map[engine.ClassID]float64{1: 0.5}}, clock)
		inj.AttachEngine(eng)
		eng.OnDone(func(q *engine.Query) {
			if q.State == engine.StateFailed {
				failTimes = append(failTimes, q.DoneTime)
			}
		})
		for i := 0; i < 40; i++ {
			eng.Submit(cpuQuery(1, 10))
		}
		clock.Run()
		return inj.Stats().Aborts, failTimes
	}
	a1, t1 := run()
	a2, t2 := run()
	if a1 == 0 || a1 == 40 {
		t.Fatalf("aborts = %d, want a strict subset at rate 0.5", a1)
	}
	if a1 != a2 || len(t1) != len(t2) {
		t.Fatalf("non-deterministic: %d/%d aborts", a1, a2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("abort time %d differs: %v vs %v", i, t1[i], t2[i])
		}
		// delay = Range(0.2, 0.9) * Work lands strictly mid-flight.
		if t1[i] <= 0 || t1[i] >= 10 {
			t.Fatalf("abort at %v is not mid-flight for 10s work", t1[i])
		}
	}
}

func TestBurstOverridesBaseRate(t *testing.T) {
	inj := NewInjector(Plan{
		AbortRate: map[engine.ClassID]float64{1: 0.1},
		AbortBursts: []Burst{
			{Window: Window{Start: 100, End: 200}, Class: 1, Rate: 0.9},
			{Window: Window{Start: 300, End: 400}, Class: 0, Rate: 0.5},
		},
	}, simclock.New())
	if r := inj.abortRateAt(50, 1); r != 0.1 {
		t.Fatalf("outside burst rate = %v", r)
	}
	if r := inj.abortRateAt(150, 1); r != 0.9 {
		t.Fatalf("in-burst rate = %v", r)
	}
	if r := inj.abortRateAt(150, 2); r != 0 {
		t.Fatalf("other class in class-scoped burst = %v", r)
	}
	if r := inj.abortRateAt(350, 2); r != 0.5 {
		t.Fatalf("class-0 burst missed class 2: %v", r)
	}
	if r := inj.abortRateAt(200, 1); r != 0.1 {
		t.Fatalf("window end must be exclusive, rate = %v", r)
	}
}

func TestSlowdownWindowStretchesExecution(t *testing.T) {
	eng, clock := newBench()
	inj := NewInjector(Plan{
		Slowdowns: []Slowdown{{Window: Window{Start: 2, End: 6}, Factor: 0.5}},
	}, clock)
	inj.AttachEngine(eng)
	q := cpuQuery(1, 10)
	eng.Submit(q)
	clock.Run()
	// 2s at full speed, 4s at half speed (2 work), then 6 remaining: 12.
	if q.State != engine.StateDone || q.DoneTime != 12 {
		t.Fatalf("done = %v (state %v), want 12", q.DoneTime, q.State)
	}
	if s := inj.Stats(); s.Slowdowns != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if eng.Speed() != 1 {
		t.Fatalf("speed not restored: %v", eng.Speed())
	}
}

func TestMonitorDrops(t *testing.T) {
	inj := NewInjector(Plan{
		SnapshotDrop:    1,
		SnapshotOutages: []Window{{Start: 100, End: 200}},
		HarvestOutages:  []Window{{Start: 100, End: 200}},
	}, simclock.New())
	if !inj.DropSnapshot(150) {
		t.Fatal("in-outage snapshot kept")
	}
	if !inj.DropSnapshot(50) {
		t.Fatal("probability-1 snapshot drop kept")
	}
	if !inj.DropHarvest(150) {
		t.Fatal("in-outage harvest kept")
	}
	if inj.DropHarvest(250) {
		t.Fatal("out-of-window harvest dropped")
	}
	if s := inj.Stats(); s.SnapshotDrops != 2 || s.HarvestDrops != 1 {
		t.Fatalf("stats = %+v", s)
	}

	none := NewInjector(Plan{}, simclock.New())
	if none.DropSnapshot(1) || none.DropHarvest(1) {
		t.Fatal("empty plan dropped a poll")
	}
}

func TestRefreshCostScalesByMisestimate(t *testing.T) {
	inj := NewInjector(Plan{Misestimate: map[engine.ClassID]float64{1: 3}}, simclock.New())
	if c := inj.RefreshCost(&engine.Query{Class: 1, Cost: 100}); c != 300 {
		t.Fatalf("refreshed cost = %v, want 300", c)
	}
	if c := inj.RefreshCost(&engine.Query{Class: 2, Cost: 100}); c != 100 {
		t.Fatalf("unlisted class refreshed to %v", c)
	}
}

func TestOnInjectObservesEveryInjection(t *testing.T) {
	eng, clock := newBench()
	inj := NewInjector(Plan{
		Misestimate: map[engine.ClassID]float64{1: 2},
		Slowdowns:   []Slowdown{{Window: Window{Start: 1, End: 2}, Factor: 0.5}},
	}, clock)
	seen := make(map[string]int)
	inj.OnInject(func(kind string, class engine.ClassID) { seen[kind]++ })
	inj.AttachEngine(eng)
	eng.Submit(cpuQuery(1, 10))
	clock.Run()
	if seen[KindMisestimate] != 1 || seen[KindSlowdown] != 1 {
		t.Fatalf("observed = %v", seen)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	eng, clock := newBench()
	inj := NewInjector(Plan{}, clock)
	inj.AttachEngine(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("second AttachEngine did not panic")
		}
	}()
	inj.AttachEngine(eng)
}

func TestExamplePlansParse(t *testing.T) {
	files, err := filepath.Glob("../../examples/faults/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example fault plans found: %v", err)
	}
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParseSpec(r)
		r.Close()
		if err != nil {
			t.Errorf("%s: %v", f, err)
		} else if p.Empty() {
			t.Errorf("%s: parsed to an empty plan", f)
		}
	}
}

func TestParseSpecBackendFaults(t *testing.T) {
	spec := `{
		"seed": 3,
		"backend_crashes": [{"backend": 3, "at": 1200, "recover_at": 2400}],
		"backend_brownouts": [{"backend": 2, "start": 600, "end": 900, "factor": 0.25}],
		"backend_dropouts": [{"backend": 1, "start": 600, "end": 900}]
	}`
	p, err := ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.BackendCrashes) != 1 || p.BackendCrashes[0] != (BackendCrash{Backend: 3, At: 1200, RecoverAt: 2400}) {
		t.Fatalf("crashes = %+v", p.BackendCrashes)
	}
	if len(p.BackendBrownouts) != 1 || p.BackendBrownouts[0].Backend != 2 || p.BackendBrownouts[0].Factor != 0.25 {
		t.Fatalf("brownouts = %+v", p.BackendBrownouts)
	}
	if len(p.BackendDropouts) != 1 || p.BackendDropouts[0].Backend != 1 {
		t.Fatalf("dropouts = %+v", p.BackendDropouts)
	}
	if p.Empty() {
		t.Error("backend-fault plan reported Empty")
	}
	if got := p.MaxBackend(); got != 3 {
		t.Errorf("MaxBackend = %d, want 3", got)
	}
}

func TestParseSpecRejectsBadBackendFaults(t *testing.T) {
	cases := map[string]string{
		"zero backend":       `{"backend_crashes": [{"backend": 0, "at": 100}]}`,
		"negative at":        `{"backend_crashes": [{"backend": 1, "at": -5}]}`,
		"recover before at":  `{"backend_crashes": [{"backend": 1, "at": 100, "recover_at": 50}]}`,
		"brownout factor 1":  `{"backend_brownouts": [{"backend": 1, "start": 0, "end": 10, "factor": 1}]}`,
		"brownout factor 0":  `{"backend_brownouts": [{"backend": 1, "start": 0, "end": 10, "factor": 0}]}`,
		"dropout bad window": `{"backend_dropouts": [{"backend": 1, "start": 10, "end": 5}]}`,
	}
	for name, in := range cases {
		if _, err := ParseSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateRoster(t *testing.T) {
	crash := func(b int, at, recoverAt float64) BackendCrash {
		return BackendCrash{Backend: b, At: at, RecoverAt: recoverAt}
	}
	cases := []struct {
		name    string
		n       int
		crashes []BackendCrash
		wantErr string
	}{
		{"one of two down", 2, []BackendCrash{crash(1, 100, 0)}, ""},
		{"staggered outages", 2, []BackendCrash{crash(1, 100, 200), crash(2, 300, 0)}, ""},
		{"only backend down", 1, []BackendCrash{crash(1, 100, 200)}, "no backend up at t=100"},
		{"overlapping outages", 2, []BackendCrash{crash(1, 100, 400), crash(2, 300, 0)}, "no backend up at t=300"},
		{"crash as the other recovers", 2, []BackendCrash{crash(2, 100, 200), crash(1, 200, 0)}, "no backend up at t=200"},
		{"target outside roster", 2, []BackendCrash{crash(3, 100, 0)}, "backend 3 of a 2-backend roster"},
	}
	for _, tc := range cases {
		err := Plan{BackendCrashes: tc.crashes}.ValidateRoster(tc.n)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// Classes the plan does not list — zero, negative, between or past the
// listed IDs — have a base abort rate of 0, and a class-0 burst still
// covers them.
func TestAbortRateUnlistedClassesReadZero(t *testing.T) {
	inj := NewInjector(Plan{
		AbortRate:   map[engine.ClassID]float64{1: 0.1, 3: 0.3},
		AbortBursts: []Burst{{Window: Window{Start: 100, End: 200}, Class: 0, Rate: 0.5}},
	}, simclock.New())
	for class, want := range map[engine.ClassID]float64{1: 0.1, 3: 0.3} {
		if r := inj.abortRateAt(50, class); r != want {
			t.Errorf("abortRateAt(50, %d) = %v, want %v", class, r, want)
		}
	}
	for _, class := range []engine.ClassID{0, 2, 4, 1 << 20, -1, -1 << 40} {
		if r := inj.abortRateAt(50, class); r != 0 {
			t.Errorf("unlisted class %d: abortRateAt = %v, want 0", class, r)
		}
		if r := inj.abortRateAt(150, class); r != 0.5 {
			t.Errorf("unlisted class %d in a class-0 burst: abortRateAt = %v, want 0.5", class, r)
		}
	}
}
