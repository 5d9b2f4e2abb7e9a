package trace

import (
	"bytes"
	"compress/gzip"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// FuzzReadJSONL asserts the trace reader's contract on arbitrary input:
// ScanJSONL returns an error or reads a meta line and well-formed
// events, never a panic. Corrupt gzip streams are covered too
// (ScanJSONL sniffs the magic bytes). Events that read cleanly must
// survive the encoder: written back out and read again, they come back
// unchanged.
func FuzzReadJSONL(f *testing.F) {
	meta := `{"type":"meta","v":1,"experiment":"fuzz","seed":1,"period_seconds":60,"periods":2,"classes":[{"id":1,"name":"olap","kind":"OLAP","goal":"velocity >= 0.4","target":0.4}]}`
	event := `{"type":"event","seq":1,"t":0.5,"kind":"submit","class":1,"query":1,"client":2,"period":0,"plan":0,"value":100}`
	f.Add([]byte(meta + "\n"))
	f.Add([]byte(meta + "\n" + event + "\n"))
	f.Add([]byte(event + "\n"))                                 // event before meta
	f.Add([]byte(meta + "\n" + meta + "\n"))                    // duplicate meta
	f.Add([]byte(`{"type":"mystery"}` + "\n"))                  // unknown line type
	f.Add([]byte(`{"type":"event","kind":"nonsense"}` + "\n"))  // unknown event kind
	f.Add([]byte("{\"type\":\"meta\""))                         // truncated JSON
	f.Add([]byte("\x1f\x8b\x08\x00garbage-after-gzip-magic\n")) // torn gzip stream
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(meta + "\n" + event + "\n"))
	zw.Close()
	f.Add(gz.Bytes()) // valid compressed trace

	f.Fuzz(func(t *testing.T, data []byte) {
		metas := 0
		var events []Event
		err := ScanJSONL(bytes.NewReader(data),
			func(Meta) error { metas++; return nil },
			func(e Event) error { events = append(events, e); return nil })
		if err != nil {
			return
		}
		if metas != 1 {
			t.Fatalf("clean scan saw %d meta lines", metas)
		}
		raw := []byte(`{"type":"meta","v":1}` + "\n")
		var enc lineEncoder
		for i := range events {
			raw = enc.appendLine(raw, &events[i])
		}
		var again []Event
		err = ScanJSONL(bytes.NewReader(raw),
			func(Meta) error { return nil },
			func(e Event) error { again = append(again, e); return nil })
		if err != nil {
			t.Fatalf("re-encoded events do not read back: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed events:\n got %+v\nwant %+v", again, events)
		}
	})
}

// The byte tables FuzzEncodeBatch draws event fields from: few values
// each, so that adjacent events often share a body, with 0 and -0, a
// template in two distinct strings, strings that need escaping, and
// integers on both sides of the digit writer's cut-offs.
var (
	batchTimes  = []float64{0, math.Copysign(0, -1), 0.5, 60, 59.999999, 3600.125, 1e-7, 12345.678, 7200, 1e21}
	batchValues = []float64{0, math.Copysign(0, -1), 1, 120.5, 4417.25, 1e-7, 3e22, -2.5}
	batchQuery  = []engine.QueryID{1, 2, 9, 10, 99, 100, 12345678, 99999999, 100000000, 1<<64 - 1}
	batchDetail = []string{"", "Q7", strings.Clone("Q7"), "Q8", "limits: 1=1.2e+04 2=500",
		"a<b>&\"c\"\n", "bad \xff utf8", "é✓ \u2028"}
	batchNum = []float64{0, 0.0005, 1.25, 2, 3.14159, 1e6, 0.05, 9.9995}
)

// Control ops of FuzzEncodeBatch's event stream.
const (
	opFlush      = 0xff // Flush the batch here
	opSwapMapper = 0xfe // install the other period mapper
)

// batchEventSize is how many fuzz bytes one event or op takes.
const batchEventSize = 7

// batchEvent decodes one event from a record of batchEventSize bytes:
// op selects the kind (numKinds is a kind outside the constants), then
// time, value, class and client, query, detail and the two Num values.
func batchEvent(r []byte) Event {
	return Event{
		Kind:   Kind(int(r[0]) % (numKinds + 1)),
		Time:   simclock.Time(batchTimes[int(r[1])%len(batchTimes)]),
		Value:  batchValues[int(r[2])%len(batchValues)],
		Class:  engine.ClassID(int(r[3]&3) - 1),
		Client: engine.ClientID(r[3] >> 2),
		Query:  batchQuery[int(r[4])%len(batchQuery)],
		Detail: batchDetail[int(r[5])%len(batchDetail)],
		Num:    [2]float64{batchNum[r[6]&7], batchNum[r[6]>>3&7]},
	}
}

// batchMappers are two period mappers that differ at every instant, and
// the first tells 0 from -0.
var batchMappers = [2]func(simclock.Time) int{
	func(t simclock.Time) int {
		if t > 1e9 {
			return 9
		}
		if math.Signbit(float64(t)) {
			return -1
		}
		return int(t / 60)
	},
	func(t simclock.Time) int { return 1000 + int(min(t, 1e9)/3600) },
}

// batchRecord encodes one event record for a seed input.
func batchRecord(kind Kind, ti, vi, ids, qi, di, ni int) []byte {
	return []byte{byte(kind), byte(ti), byte(vi), byte(ids), byte(qi), byte(di), byte(ni)}
}

// FuzzEncodeBatch is a differential test of batched encoding: events
// decoded from the fuzz bytes go through a Tracer with a period mapper,
// with flushes and mapper swaps where the bytes say, and the sink must
// hold exactly the lines encoding/json writes for the same events
// stamped the way Emit stamps them (marshalEventLine). It covers the
// line reuse of appendBatch and the digit writers, and that a mapper
// swapped between two events at one instant stamps the second.
func FuzzEncodeBatch(f *testing.F) {
	ctl := func(op byte) []byte { return []byte{op, 0, 0, 0, 0, 0, 0} }
	var seed []byte
	add := func(recs ...[]byte) {
		for _, r := range recs {
			seed = append(seed, r...)
		}
	}
	flush := func() {
		f.Add(seed)
		seed = nil
	}
	// Adjacent events with one body, for every ordered pair of kinds,
	// the kind outside the constants included, with a template and with
	// an empty Detail whose annotation comes from Num.
	for _, di := range []int{1, 0} {
		for a := 0; a <= numKinds; a++ {
			for b := 0; b <= numKinds; b++ {
				add(batchRecord(Kind(a), 3, 3, 5, 6, di, 0o21), batchRecord(Kind(b), 3, 3, 5, 6, di, 0o21))
			}
		}
		flush()
	}
	// 0 and -0 as times and as values, next to each other: under the
	// first mapper, which stamps them with different periods, and under
	// the second, which stamps them alike.
	for range batchMappers {
		add(batchRecord(QuerySubmit, 0, 2, 1, 0, 1, 0), batchRecord(QueryStart, 1, 2, 1, 0, 1, 0),
			batchRecord(QuerySubmit, 2, 0, 1, 0, 1, 0), batchRecord(QueryStart, 2, 1, 1, 0, 1, 0),
			batchRecord(QueryDone, 1, 1, 1, 0, 0, 0), batchRecord(QueryDone, 0, 1, 1, 0, 0, 0),
			ctl(opSwapMapper))
	}
	flush()
	// One template held in two distinct strings, and templates that
	// differ or need escaping.
	add(batchRecord(QuerySubmit, 4, 3, 2, 3, 1, 0), batchRecord(QueryStart, 4, 3, 2, 3, 2, 0),
		batchRecord(QueryIntercepted, 4, 3, 2, 3, 2, 0), batchRecord(QueryReleased, 4, 3, 2, 3, 3, 0),
		batchRecord(QuerySubmit, 5, 4, 6, 7, 5, 0), batchRecord(QueryStart, 5, 4, 6, 7, 5, 0),
		batchRecord(QuerySubmit, 5, 4, 6, 7, 6, 0), batchRecord(QueryStart, 5, 4, 6, 7, 7, 0))
	flush()
	// An empty Detail with Num set after a templated event of one body.
	add(batchRecord(QueryIntercepted, 3, 4, 9, 8, 1, 0o12), batchRecord(QueryReleased, 3, 4, 9, 8, 0, 0o12),
		batchRecord(QueryStart, 3, 4, 9, 8, 1, 0o34), batchRecord(QueryDone, 3, 4, 9, 8, 0, 0o34),
		batchRecord(QueryRouted, 3, 4, 9, 8, 0, 0o33), batchRecord(QueryRerouted, 3, 4, 9, 8, 0, 0o32))
	flush()
	// A kind outside the constants between events of one body.
	add(batchRecord(QuerySubmit, 6, 5, 3, 9, 1, 0), batchRecord(Kind(numKinds), 6, 5, 3, 9, 1, 0),
		batchRecord(QueryStart, 6, 5, 3, 9, 1, 0), batchRecord(Kind(numKinds), 6, 5, 3, 9, 0, 0))
	flush()
	// More than one batch of submit/start pairs, offset by one event so
	// that a pair straddles the batch boundary, then an explicit flush
	// between the two halves of a pair.
	add(batchRecord(PlanChanged, 3, 6, 0, 0, 4, 0))
	for i := 0; i < 160; i++ {
		add(batchRecord(QuerySubmit, 3+i%2, 3, i, i, 1, 0), batchRecord(QueryStart, 3+i%2, 3, i, i, 1, 0))
	}
	add(batchRecord(QuerySubmit, 7, 3, 1, 2, 1, 0), ctl(opFlush), batchRecord(QueryStart, 7, 3, 1, 2, 1, 0))
	flush()
	// The period mapper swapped between two events at one instant.
	add(batchRecord(QuerySubmit, 3, 3, 1, 1, 1, 0), ctl(opSwapMapper), batchRecord(QueryStart, 3, 3, 1, 1, 1, 0),
		batchRecord(QueryDone, 3, 3, 1, 1, 0, 0), ctl(opSwapMapper), batchRecord(QuerySubmit, 3, 3, 1, 2, 1, 0),
		batchRecord(QueryStart, 1, 3, 1, 2, 1, 0), batchRecord(QueryStart, 0, 3, 1, 2, 1, 0))
	flush()

	f.Fuzz(func(t *testing.T, data []byte) {
		var sink bytes.Buffer
		tr := New()
		mapper := 0
		tr.SetPeriodMapper(batchMappers[mapper])
		if err := tr.StreamJSONL(&sink, Meta{Experiment: "fuzz"}); err != nil {
			t.Fatal(err)
		}
		metaLen := sink.Len()
		var want []byte
		var seq uint64
		plan := 0
		for ; len(data) >= batchEventSize; data = data[batchEventSize:] {
			r := data[:batchEventSize]
			switch r[0] {
			case opFlush:
				tr.Flush()
				continue
			case opSwapMapper:
				mapper = 1 - mapper
				tr.SetPeriodMapper(batchMappers[mapper])
				continue
			}
			e := batchEvent(r)
			tr.Emit(e)
			seq++
			if e.Kind == PlanChanged {
				plan++
			}
			e.Seq, e.Period, e.Plan = seq, batchMappers[mapper](e.Time), plan
			want = append(want, marshalEventLine(t, e)...)
		}
		if err := tr.SinkErr(); err != nil {
			t.Fatal(err)
		}
		if tr.Total() != seq {
			t.Fatalf("Total() = %d, want %d", tr.Total(), seq)
		}
		if got := sink.Bytes()[metaLen:]; !bytes.Equal(got, want) {
			gl, wl := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("got %d lines, want %d", len(gl), len(wl))
		}
	})
}
