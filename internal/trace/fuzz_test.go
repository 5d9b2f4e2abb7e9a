package trace

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"testing"
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
