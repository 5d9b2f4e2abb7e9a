package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// textDetail is the annotation as the tracer used to build it: Detail
// when set, else the kind's fmt template over Num.
func textDetail(e Event) string {
	if e.Detail != "" {
		return e.Detail
	}
	switch e.Kind {
	case QueryDone:
		return fmt.Sprintf("rt=%.3fs exec=%.3fs", e.Num[0], e.Num[1])
	case QueryReleased:
		return fmt.Sprintf("waited=%.1fs", e.Num[0])
	case QueryAborted, QueryRetried:
		return fmt.Sprintf("attempt=%d", int(e.Num[0]))
	case QueryRouted:
		return fmt.Sprintf("backend=%d", int(e.Num[0]))
	case QueryRerouted:
		return fmt.Sprintf("backend=%d->%d", int(e.Num[0]), int(e.Num[1]))
	}
	return ""
}

// marshalEventLine is the seed path: encoding/json over the on-disk
// struct, one line per event, with the detail built as a string.
// lineEncoder must match it byte for byte — the JSONL format is pinned
// by golden traces, so the encoder is only correct if it is
// indistinguishable from this.
func marshalEventLine(t *testing.T, e Event) []byte {
	t.Helper()
	line, err := json.Marshal(jsonEvent{
		Type:   "event",
		Seq:    e.Seq,
		T:      float64(e.Time),
		Kind:   e.Kind.String(),
		Class:  int(e.Class),
		Query:  uint64(e.Query),
		Client: int(e.Client),
		Period: e.Period,
		Plan:   e.Plan,
		Value:  e.Value,
		Detail: textDetail(e),
	})
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return append(line, '\n')
}

func checkEventLine(t *testing.T, enc *lineEncoder, e Event) {
	t.Helper()
	got := enc.appendLine(nil, &e)
	want := marshalEventLine(t, e)
	if string(got) != string(want) {
		t.Errorf("event %+v:\n got %q\nwant %q", e, got, want)
	}
}

// typedKinds are the kinds whose annotation is formatted from Num.
var typedKinds = []Kind{QueryDone, QueryReleased, QueryAborted, QueryRetried, QueryRouted, QueryRerouted}

// TestEventLineMatchesEncodingJSON drives the hand-rolled encoder over
// adversarial values: float formatting edge cases around encoding/json's
// 'f'/'e' switchover, every escape class in strings (quotes, control
// bytes, HTML characters, invalid UTF-8, U+2028/U+2029), every typed
// detail kind, the float memo (colliding entries, ±0, texts too long to
// keep), seqs across gaps and digit rollovers, and a large pseudo-random
// sweep. One encoder serves every case, so its memo carries across
// events.
func TestEventLineMatchesEncodingJSON(t *testing.T) {
	var enc lineEncoder
	floats := []float64{
		0, 1, -1, 0.5, -0.25, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e21,
		9.99999999e20, -1e21, 1e-300, 1e300, 123456.789, 0.1, 1.0 / 3.0,
		600, 86400, 2.5e-9, 7.733e-10, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	details := []string{
		"", "Q1.5", "rt=0.123s exec=0.045s", "limits: 1=1.2e+04 2=500",
		`quote " backslash \ done`, "tab\tnewline\ncarriage\r",
		"ctrl\x01\x1f", "html <b> & </b>", "utf8 ünïcode ✓",
		"bad utf8 \xff\xfe", "line sep \u2028 and \u2029",
		strings.Repeat("long ", 100) + "<end>", "backend=1->2",
	}
	for _, f := range floats {
		checkEventLine(t, &enc, Event{Seq: 1, Time: simclock.Time(f), Kind: QueryDone, Value: -f})
	}
	for _, d := range details {
		checkEventLine(t, &enc, Event{Seq: 2, Time: 1.25, Kind: QuerySubmit, Detail: d})
	}

	// Every typed detail kind: seconds over the floats above, and
	// integer counts and backend IDs.
	for _, k := range typedKinds {
		for _, f := range floats {
			if k == QueryDone || k == QueryReleased {
				checkEventLine(t, &enc, Event{Seq: 3, Time: 2, Kind: k, Value: 4, Num: [2]float64{f, 2 * f}})
			}
		}
		for _, n := range []float64{0, 1, 2, 3, 17, 1 << 20} {
			checkEventLine(t, &enc, Event{Seq: 4, Time: 2, Kind: k, Num: [2]float64{n, n + 1}})
		}
		// A Detail read back from a file is written as read.
		checkEventLine(t, &enc, Event{Seq: 5, Time: 2, Kind: k, Detail: "as read", Num: [2]float64{1, 2}})
	}

	// The float memo is keyed on bits: 0 and -0 alternate in both
	// memoized fields and must keep their own text.
	negZero := math.Copysign(0, -1)
	for i := 0; i < 6; i++ {
		z := 0.0
		if i%2 == 1 {
			z = negZero
		}
		checkEventLine(t, &enc, Event{Seq: uint64(10 + i), Time: simclock.Time(z), Kind: QueryStart, Value: z})
		checkEventLine(t, &enc, Event{Seq: uint64(20 + i), Time: simclock.Time(z), Kind: QueryStart, Value: z})
	}

	// Values that share one memo entry evict each other: alternating
	// them as t and value must never serve one's text for the other.
	slot := func(f float64) uint64 { return memoSlot(math.Float64bits(f)) }
	var pair []float64
	seen := map[uint64]float64{}
	for i := 1; len(pair) == 0; i++ {
		f := float64(i) * 0.37
		if g, ok := seen[slot(f)]; ok {
			pair = []float64{g, f}
		}
		seen[slot(f)] = f
	}
	for i := 0; i < 8; i++ {
		a, b := pair[i%2], pair[1-i%2]
		checkEventLine(t, &enc, Event{Seq: uint64(30 + i), Time: simclock.Time(a), Kind: QueryDone, Value: b})
		checkEventLine(t, &enc, Event{Seq: uint64(40 + i), Time: simclock.Time(b), Kind: QueryDone, Value: b})
	}

	// A text longer than a memo entry is formatted every time, and must
	// not be truncated or left behind for a later lookup.
	long := 0.0000012345678901234567
	if n := len(appendJSONFloat(nil, long)); n <= memoText {
		t.Fatalf("%v formats to %d bytes, want more than a memo entry's %d", long, n, memoText)
	}
	for i := 0; i < 3; i++ {
		checkEventLine(t, &enc, Event{Seq: uint64(50 + i), Time: simclock.Time(long), Kind: QuerySubmit, Value: -long})
		checkEventLine(t, &enc, Event{Seq: uint64(60 + i), Time: 1, Kind: QuerySubmit, Value: long})
	}

	// Runs of consecutive seqs across digit rollovers, carries inside the
	// number, gaps, repeats and a restart from a smaller seq.
	for _, seq := range []uint64{97, 98, 99, 100, 101, 105, 106, 106, 109, 110, 999, 1000, 1001,
		1098, 1099, 1100, 1101, 99999, 100000, 7, 8, 9, 10, 11, 19, 20,
		1<<64 - 2, 1<<64 - 1, 0, 1, 9999999999999999999, 10000000000000000000} {
		checkEventLine(t, &enc, Event{Seq: seq, Time: 3, Kind: QueryStart, Value: 4})
	}

	src := rng.New(42)
	runes := []rune("ab\"\\<>&\n\r\t\x01é✓\u2028\u2029\ufffd")
	for i := 0; i < 4000; i++ {
		var sb strings.Builder
		if src.Intn(2) == 0 {
			for n := src.Intn(12); n > 0; n-- {
				sb.WriteRune(runes[src.Intn(len(runes))])
			}
		}
		// Mix magnitudes so both float formats and the exponent-trim
		// path are exercised.
		v := src.Range(-1, 1) * math.Pow(10, float64(src.Intn(50)-25))
		at := simclock.Time(src.Range(0, 1e9))
		if src.Intn(3) == 0 {
			at = simclock.Time(src.Intn(4)) // repeats for the float memo
		}
		e := Event{
			Seq:    src.Uint64(),
			Time:   at,
			Kind:   Kind(src.Intn(numKinds)),
			Class:  engine.ClassID(src.Intn(7) - 2),
			Query:  engine.QueryID(src.Uint64()),
			Client: engine.ClientID(src.Intn(1 << 20)),
			Period: src.Intn(20),
			Plan:   src.Intn(100),
			Value:  v,
			Detail: sb.String(),
			Num:    [2]float64{src.Range(0, 1) * math.Pow(10, float64(src.Intn(10)-3)), float64(src.Intn(9))},
		}
		checkEventLine(t, &enc, e)
	}
}

// TestAppendFixedMatchesAppendFloat pins the fixed-point fast path
// byte-equal to strconv.AppendFloat(x, 'f', p, 64) at the precisions
// the encoder uses: random magnitudes, exact decimal ties, digit
// carries, signed zeros, subnormals, values at and beyond 2^52, and
// random bit patterns (NaN and ±Inf among them).
func TestAppendFixedMatchesAppendFloat(t *testing.T) {
	var xs []float64
	src := rng.New(7)
	for i := 0; i < 20000; i++ {
		xs = append(xs, src.Range(0, 1)*math.Pow(10, float64(src.Intn(31)-12)))
	}
	for k := 0; k < 20000; k++ {
		xs = append(xs, (float64(k)+0.5)/1000, float64(k)/20, float64(k)/2000, float64(k)/16)
	}
	for _, base := range []float64{9.9995, 9.95, 0.9995, 0.95, 99.9995, 999.95, 0.0005, 0.05, 0.00049, 0.0625, 0.125, 2.5} {
		xs = append(xs, base, math.Nextafter(base, 0), math.Nextafter(base, 2*base+1))
	}
	xs = append(xs, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022,
		0x1p-1023, 0x1p-11, math.Nextafter(0x1p-11, 0), 0x1p-12, 1-0x1p-53,
		0x1p52, 0x1p52-0.5, 0x1p52+1, 0x1p53, 0x1p63, 1e18, math.MaxFloat64,
		-1, -0.0005, -9.9995, math.Inf(1), math.Inf(-1), math.NaN())
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Float64frombits(src.Uint64()))
	}
	for _, x := range xs {
		for _, p := range []int{1, 3} {
			got := appendFixed([]byte("x="), x, p)
			want := strconv.AppendFloat([]byte("x="), x, 'f', p, 64)
			if string(got) != string(want) {
				t.Fatalf("appendFixed(%b, %d) = %q, want %q", x, p, got, want)
			}
		}
	}
}
