// Lifecycle spans and the lossless JSONL format. The tracer streams
// every event to a sink so cmd/qtrace can reconstruct full query
// lifecycles after the run. The format is line-oriented JSON with a
// "type" discriminator: one meta line first, then one line per event,
// in emission order. Field order is fixed; floats use Go's shortest
// round-trip encoding, and the seconds inside details a fixed
// precision, so identical runs export byte-identical files.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// FormatVersion identifies the JSONL trace format.
const FormatVersion = 1

// ClassMeta describes one service class in the trace header.
type ClassMeta struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	Goal string `json:"goal"`
	// Target is the numeric goal value (velocity floor or RT ceiling).
	Target float64 `json:"target"`
}

// BackendMeta describes one fleet backend in the trace header.
type BackendMeta struct {
	ID   int     `json:"id"` // 1-based, matches route events' Value and decision records' backend
	Name string  `json:"name"`
	CPU  float64 `json:"cpu"`
	IO   float64 `json:"io"`
}

// Meta is the trace header: enough run context for qtrace to interpret
// event times as schedule periods and class IDs as named classes.
type Meta struct {
	Version       int         `json:"v"`
	Experiment    string      `json:"experiment"`
	Seed          int64       `json:"seed"`
	PeriodSeconds float64     `json:"period_seconds"`
	Periods       int         `json:"periods"`
	Classes       []ClassMeta `json:"classes"`
	// Backends is the fleet roster; empty (and omitted from the header
	// line) for single-backend runs, so legacy traces are byte-identical.
	Backends []BackendMeta `json:"backends,omitempty"`
}

// jsonMeta is the on-disk meta line.
type jsonMeta struct {
	Type string `json:"type"`
	Meta
}

// jsonEvent is the on-disk event line.
type jsonEvent struct {
	Type   string  `json:"type"`
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"`
	Kind   string  `json:"kind"`
	Class  int     `json:"class"`
	Query  uint64  `json:"query"`
	Client int     `json:"client"`
	Period int     `json:"period"`
	Plan   int     `json:"plan"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

// StreamJSONL attaches a lossless JSONL sink: the meta line is written
// immediately and every subsequently emitted event is appended as one
// line, in flushed batches. Only one sink may be attached. The
// caller owns w (and any buffering/closing); write errors after this call
// are latched and reported by SinkErr.
func (t *Tracer) StreamJSONL(w io.Writer, meta Meta) error {
	if t.sink != nil {
		return fmt.Errorf("trace: JSONL sink already attached")
	}
	meta.Version = FormatVersion
	line, err := json.Marshal(jsonMeta{Type: "meta", Meta: meta})
	if err != nil {
		return fmt.Errorf("trace: encode meta: %w", err)
	}
	n, err := w.Write(append(line, '\n'))
	t.sinkBytes += int64(n)
	if err != nil {
		return fmt.Errorf("trace: write meta: %w", err)
	}
	t.sink = w
	t.pending = make([]Event, 0, traceBatchSize)
	return nil
}

// SinkBytes returns how many bytes the tracer has written to its sink —
// the offset a checkpoint records and a resumed run checks. Reading it
// flushes any batched events first, so the offset is always exact.
func (t *Tracer) SinkBytes() int64 {
	t.Flush()
	return t.sinkBytes
}

// SinkErr returns the first error the JSONL sink hit, or nil. Emit never
// fails loudly on the hot path; callers check this once after the run
// (the check flushes any still-batched events).
func (t *Tracer) SinkErr() error {
	t.Flush()
	return t.sinkErr
}

// lineEncoder encodes event lines — a hand-rolled encoder producing
// byte for byte what encoding/json produced for the equivalent
// jsonEvent (field order, HTML escaping, float formatting, detail
// omitted when empty), without reflection or allocation.
// TestEventLineMatchesEncodingJSON pins the equivalence. t and value go
// through a memo of formatted floats, so a query's cost is formatted
// once for its submit, start and done lines and a clock time once for
// every event at it; seq is a counter kept as text.
type lineEncoder struct {
	floats floatMemo
	seq    seqCounter
	buf    []byte // the flushed batch, reused

	// Where the last line written begins its `,"t":` run, its kind token
	// and its class value: appendBatch copies a repeated body from there.
	tAt, kindAt, classAt int
}

// seqCounter writes event seqs. The text of the last seq written is
// kept, so its successor is written by incrementing that text in place;
// any other seq (a gap, a repeat, a restart, the wrap to 0, or a carry
// into a new leading digit) is formatted afresh.
type seqCounter struct {
	last uint64
	n    uint8 // text length; 0 until the first seq
	text [20]byte
}

func (c *seqCounter) append(buf []byte, seq uint64) []byte {
	if seq == 0 || seq != c.last+1 || !c.increment() {
		c.n = uint8(len(strconv.AppendUint(c.text[:0], seq, 10)))
	}
	c.last = seq
	return append(buf, c.text[:c.n]...)
}

// increment adds one to the text in place. It reports false, leaving
// the text to be rewritten, when the carry runs off the leading digit.
func (c *seqCounter) increment() bool {
	for i := int(c.n) - 1; i >= 0; i-- {
		if c.text[i] != '9' {
			c.text[i]++
			return true
		}
		c.text[i] = '0'
	}
	return false
}

// memoBits sizes floatMemo at 2^memoBits entries of 32 bytes: 16 KB,
// allocated with the encoder and never grown.
const memoBits = 9

// memoText is the longest float text a memo entry holds. Longer texts
// (17 significant digits behind leading zeros) are formatted every time.
const memoText = 23

// floatMemo is a direct-mapped memo of formatted floats. It is keyed on
// the bit pattern, not on ==, because 0 and -0 format differently.
type floatMemo [1 << memoBits]struct {
	bits uint64
	n    uint8 // text length; 0 marks an empty entry
	text [memoText]byte
}

// memoSlot is the memo entry a float's bits map to (Fibonacci hashing).
func memoSlot(bits uint64) uint64 { return bits * 0x9e3779b97f4a7c15 >> (64 - memoBits) }

func (m *floatMemo) append(buf []byte, f float64) []byte {
	b := math.Float64bits(f)
	e := &m[memoSlot(b)]
	if e.n != 0 && e.bits == b {
		return append(buf, e.text[:e.n]...)
	}
	start := len(buf)
	buf = appendJSONFloat(buf, f)
	if n := len(buf) - start; n <= memoText {
		e.bits, e.n = b, uint8(n)
		copy(e.text[:], buf[start:])
	}
	return buf
}

// kindTokens[k] is the encoded `,"kind":"…","class":` run of kind k.
var kindTokens = func() (out [numKinds]string) {
	for k, name := range kindNames {
		out[k] = `,"kind":"` + name + `","class":`
	}
	return out
}()

// appendBatch encodes a batch of events into buf, one line each. An
// event whose body repeats the previous event's (sameBody) is written
// from the previous line: its own seq, the previous line's bytes from
// `,"t":` to the kind token, its own kind token, then the previous
// line's bytes from the class value to the end. That is every start and
// every intercept right after its submit.
//
//qlint:hotpath
func (enc *lineEncoder) appendBatch(buf []byte, events []Event) []byte {
	for i := range events {
		e := &events[i]
		if i == 0 || !sameBody(&events[i-1], e) {
			buf = enc.appendLine(buf, e)
			continue
		}
		end, tAt, kindAt, classAt := len(buf), enc.tAt, enc.kindAt, enc.classAt
		buf = append(buf, `{"type":"event","seq":`...)
		buf = enc.seq.append(buf, e.Seq)
		enc.tAt = len(buf)
		buf = append(buf, buf[tAt:kindAt]...)
		enc.kindAt = len(buf)
		buf = append(buf, kindTokens[e.Kind]...)
		enc.classAt = len(buf)
		buf = append(buf, buf[classAt:end]...)
	}
	return buf
}

// sameBody reports whether b's line is a's but for seq and kind: the
// same time and value bits (0 and -0 format differently), class, query,
// client, period and plan, the same non-empty Detail (an empty one is
// formatted from Num by kind), and known kinds.
func sameBody(a, b *Event) bool {
	return a.Query == b.Query &&
		math.Float64bits(float64(a.Time)) == math.Float64bits(float64(b.Time)) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.Class == b.Class && a.Client == b.Client &&
		a.Period == b.Period && a.Plan == b.Plan &&
		b.Detail != "" && a.Detail == b.Detail &&
		uint(a.Kind) < uint(numKinds) && uint(b.Kind) < uint(numKinds)
}

// appendLine encodes one event line into buf.
//
//qlint:hotpath
func (enc *lineEncoder) appendLine(buf []byte, e *Event) []byte {
	buf = append(buf, `{"type":"event","seq":`...)
	buf = enc.seq.append(buf, e.Seq)
	enc.tAt = len(buf)
	buf = append(buf, `,"t":`...)
	buf = enc.floats.append(buf, float64(e.Time))
	enc.kindAt = len(buf)
	if k := int(e.Kind); k >= 0 && k < numKinds {
		buf = append(buf, kindTokens[k]...)
	} else {
		buf = append(buf, `,"kind":`...)
		buf = appendJSONString(buf, e.Kind.String())
		buf = append(buf, `,"class":`...)
	}
	enc.classAt = len(buf)
	buf = appendInt(buf, int64(e.Class))
	buf = append(buf, `,"query":`...)
	buf = appendUint(buf, uint64(e.Query))
	buf = append(buf, `,"client":`...)
	buf = appendInt(buf, int64(e.Client))
	buf = append(buf, `,"period":`...)
	buf = appendInt(buf, int64(e.Period))
	buf = append(buf, `,"plan":`...)
	buf = appendInt(buf, int64(e.Plan))
	buf = append(buf, `,"value":`...)
	buf = enc.floats.append(buf, e.Value)
	buf = appendDetail(buf, e)
	return append(buf, '}', '\n')
}

// appendDetail writes the detail field: Detail verbatim when set,
// otherwise the kind's numeric annotation (see Event.Num). The numeric
// forms hold only characters encoding/json leaves alone, except the
// '>' of "->", which it HTML-escapes.
func appendDetail(buf []byte, e *Event) []byte {
	if e.Detail != "" {
		buf = append(buf, `,"detail":`...)
		return appendJSONString(buf, e.Detail)
	}
	switch e.Kind {
	case QueryDone:
		buf = append(buf, `,"detail":"rt=`...)
		buf = appendFixed(buf, e.Num[0], 3)
		buf = append(buf, `s exec=`...)
		buf = appendFixed(buf, e.Num[1], 3)
		buf = append(buf, `s"`...)
	case QueryReleased:
		buf = append(buf, `,"detail":"waited=`...)
		buf = appendFixed(buf, e.Num[0], 1)
		buf = append(buf, `s"`...)
	case QueryAborted, QueryRetried:
		buf = append(buf, `,"detail":"attempt=`...)
		buf = appendInt(buf, int64(e.Num[0]))
		buf = append(buf, '"')
	case QueryRouted:
		buf = append(buf, `,"detail":"backend=`...)
		buf = appendInt(buf, int64(e.Num[0]))
		buf = append(buf, '"')
	case QueryRerouted:
		buf = append(buf, `,"detail":"backend=`...)
		buf = appendInt(buf, int64(e.Num[0]))
		buf = append(buf, `-\u003e`...)
		buf = appendInt(buf, int64(e.Num[1]))
		buf = append(buf, '"')
	}
	return buf
}

// pow10[p] is 10^p for the precisions appendFixed serves.
var pow10 = [4]uint64{1, 10, 100, 1000}

// appendFixed appends x with prec fraction digits, byte-equal to
// strconv.AppendFloat(buf, x, 'f', prec, 64) (which always takes the
// multiprecision path for 'f') for prec 1 to 3. For x = m·2^e with
// x ≥ 0 and -64 < e < 0, m·10^prec (below 2^63) is shifted right by -e
// and rounded half to even on the remainder, as AppendFloat rounds the
// exact binary value. x < 2^-11 (e ≤ -64, with 0 and subnormals) rounds
// to zero at 3 digits or fewer. Negative, non-finite and x ≥ 2^52 fall
// back to AppendFloat. TestAppendFixedMatchesAppendFloat pins it.
func appendFixed(buf []byte, x float64, prec int) []byte {
	bits := math.Float64bits(x)
	exp := int(bits>>52) & 0x7ff
	if bits>>63 != 0 || exp >= 1075 || prec < 1 || prec > 3 {
		return strconv.AppendFloat(buf, x, 'f', prec, 64)
	}
	var q uint64 // x·10^prec, rounded
	if e := exp - 1075; e > -64 {
		n := (bits&(1<<52-1) | 1<<52) * pow10[prec]
		s := uint(-e)
		q = n >> s
		r, half := n&(1<<s-1), uint64(1)<<(s-1)
		if r > half || r == half && q&1 == 1 {
			q++
		}
	}
	switch prec {
	case 1:
		buf = appendUint(buf, q/10)
		return append(buf, '.', byte('0'+q%10))
	case 2:
		f := q % 100
		buf = appendUint(buf, q/100)
		return append(buf, '.', digitPairs[2*f], digitPairs[2*f+1])
	default:
		f, p := q%1000, q%100
		buf = appendUint(buf, q/1000)
		return append(buf, '.', byte('0'+f/100), digitPairs[2*p], digitPairs[2*p+1])
	}
}

// appendUint appends v in decimal, byte-equal to strconv.AppendUint(buf,
// v, 10): one digit-pair lookup below 100, pairs of 32-bit digits below
// 10^8, strconv at and above.
func appendUint(buf []byte, v uint64) []byte {
	switch {
	case v < 10:
		return append(buf, byte('0'+v))
	case v < 100:
		return append(buf, digitPairs[2*v], digitPairs[2*v+1])
	case v < 1e8:
		var d [8]byte
		i := putDigits(d[:], uint32(v))
		return append(buf, d[i:]...)
	}
	return strconv.AppendUint(buf, v, 10)
}

// appendInt is appendUint for a signed v; a negative one goes to strconv.
func appendInt(buf []byte, v int64) []byte {
	if v < 0 {
		return strconv.AppendInt(buf, v, 10)
	}
	return appendUint(buf, uint64(v))
}

// appendJSONFloat mirrors encoding/json's float64 encoder: shortest
// round-trip 'f' form, switching to 'e' form outside [1e-6, 1e21) with
// the exponent's leading zero trimmed. The 'f' range goes through the
// Schubfach kernel (appendShortest); 0 and the 'e' range stay on
// strconv. Event times and values are always finite; a non-finite value
// here is a bug, and json.Marshal would have refused it too.
func appendJSONFloat(buf []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("trace: non-finite float %v in event", f))
	}
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		return appendShortest(buf, f)
	}
	format := byte('f')
	if abs != 0 {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

const jsonHex = "0123456789abcdef"

// jsonSafe[c] reports whether encoding/json, HTML escaping on, writes
// byte c as itself: printable ASCII but '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (safe [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendJSONString mirrors encoding/json's string encoder with HTML
// escaping on (the package default): quotes, backslashes and control
// bytes escaped; '<', '>', '&' written as \u003c, \u003e, \u0026; invalid
// UTF-8 replaced with the � escape; U+2028/U+2029 escaped. A string
// of safe bytes only, such as every template name, is scanned once and
// copied whole.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			buf = append(buf, s[start:i]...)
			switch c {
			case '\\', '"':
				buf = append(buf, '\\', c)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\u202`...)
			buf = append(buf, jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	buf = append(buf, '"')
	return buf
}

// kindFromString inverts Kind.String for trace file parsing.
func kindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// ClassByID returns the class metadata for id, or nil.
func (m Meta) ClassByID(id int) *ClassMeta {
	for i := range m.Classes {
		if m.Classes[i].ID == id {
			return &m.Classes[i]
		}
	}
	return nil
}

// ScanJSONL streams a trace exported by StreamJSONL without retaining
// it: the meta line (which must come first) is passed to onMeta, then
// every event is passed to onEvent in file order, its annotation in
// Detail as written. Gzip-compressed exports (written through a
// .jsonl.gz sink) are detected by their magic bytes and decompressed
// transparently. Unknown line types are rejected (the format is
// versioned, not open-ended); corrupt or truncated input yields an
// error, never a panic. Memory stays constant no matter how large the
// trace is. A callback error aborts the scan and is returned verbatim.
func ScanJSONL(r io.Reader, onMeta func(Meta) error, onEvent func(Event) error) error {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("trace: gzip: %w", err)
		}
		defer zr.Close()
		return scanJSONL(zr, onMeta, onEvent)
	}
	return scanJSONL(br, onMeta, onEvent)
}

func scanJSONL(r io.Reader, onMeta func(Meta) error, onEvent func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	sawMeta := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// One decode per line, into a fresh value: the two halves share
		// no JSON name, so either kind of line fills its own half.
		var ln struct {
			jsonEvent
			Meta
		}
		if err := json.Unmarshal(line, &ln); err != nil {
			return fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch ln.Type {
		case "meta":
			if sawMeta {
				return fmt.Errorf("trace: line %d: duplicate meta", lineNo)
			}
			sawMeta = true
			if err := onMeta(ln.Meta); err != nil {
				return err
			}
		case "event":
			if !sawMeta {
				return fmt.Errorf("trace: line %d: event before meta", lineNo)
			}
			kind, err := kindFromString(ln.Kind)
			if err != nil {
				return fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			err = onEvent(Event{
				Seq:    ln.Seq,
				Time:   simclock.Time(ln.T),
				Kind:   kind,
				Class:  engine.ClassID(ln.Class),
				Query:  engine.QueryID(ln.Query),
				Client: engine.ClientID(ln.Client),
				Period: ln.Period,
				Plan:   ln.Plan,
				Value:  ln.Value,
				Detail: ln.Detail,
			})
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("trace: line %d: unknown type %q", lineNo, ln.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: read: %w", err)
	}
	if !sawMeta {
		return fmt.Errorf("trace: no meta line (not a trace export?)")
	}
	return nil
}

// noTime marks a lifecycle edge a span never reached.
const noTime = simclock.Time(-1)

// Span is one query's reconstructed lifecycle: the times of each edge it
// passed, with the class/cost identity and the plan version in force at
// the edges. Edges the query never reached are -1 (check with the
// predicates below).
type Span struct {
	Query    engine.QueryID
	Class    engine.ClassID
	Client   engine.ClientID
	Cost     float64
	Template string

	Submit    simclock.Time
	Intercept simclock.Time
	Release   simclock.Time
	Start     simclock.Time
	Done      simclock.Time

	SubmitPeriod int
	DonePeriod   int
	SubmitPlan   int
	DonePlan     int
}

// Managed reports whether the patroller intercepted the query.
func (s *Span) Managed() bool { return s.Intercept >= 0 }

// Started reports whether the query began executing.
func (s *Span) Started() bool { return s.Start >= 0 }

// Completed reports whether the query finished inside the trace.
func (s *Span) Completed() bool { return s.Done >= 0 }

// AdmissionWait is the time from submit until execution start — the
// dispatcher's hold time (0 for unintercepted queries, which start
// immediately). For a query still held at end-of-trace pass the trace
// horizon as now; for completed spans now is ignored.
func (s *Span) AdmissionWait(now simclock.Time) float64 {
	switch {
	case s.Started():
		return float64(s.Start - s.Submit)
	default:
		return float64(now - s.Submit)
	}
}

// ExecTime is the execution duration, or the elapsed running time against
// now for spans still executing at end-of-trace.
func (s *Span) ExecTime(now simclock.Time) float64 {
	if !s.Started() {
		return 0
	}
	if s.Completed() {
		return float64(s.Done - s.Start)
	}
	return float64(now - s.Start)
}

// BuildSpans folds lifecycle events into one span per query, ordered by
// query ID. Non-query events (plan changes, workload shifts) are skipped.
func BuildSpans(events []Event) []*Span {
	byID := make(map[engine.QueryID]*Span)
	var order []engine.QueryID
	get := func(e Event) *Span {
		s, ok := byID[e.Query]
		if !ok {
			s = &Span{Query: e.Query, Class: e.Class, Client: e.Client,
				Cost: e.Value, Submit: noTime, Intercept: noTime,
				Release: noTime, Start: noTime, Done: noTime}
			byID[e.Query] = s
			order = append(order, e.Query)
		}
		return s
	}
	for _, e := range events {
		switch e.Kind {
		case QuerySubmit:
			s := get(e)
			s.Submit = e.Time
			s.Template = e.Detail
			s.SubmitPeriod = e.Period
			s.SubmitPlan = e.Plan
		case QueryIntercepted:
			get(e).Intercept = e.Time
		case QueryReleased:
			get(e).Release = e.Time
		case QueryStart:
			get(e).Start = e.Time
		case QueryDone:
			s := get(e)
			s.Done = e.Time
			s.DonePeriod = e.Period
			s.DonePlan = e.Plan
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]*Span, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id])
	}
	return out
}
