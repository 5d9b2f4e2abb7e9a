package fault

import (
	"bytes"
	"testing"
)

// FuzzParseSpec asserts the fault-plan parser's contract on arbitrary
// input: a validated plan or an error, never a panic.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seed":7,"abort_rate":{"1":0.15},"misestimate":{"2":3}}`))
	f.Add([]byte(`{"abort_bursts":[{"start":3600,"end":7200,"class":2,"rate":0.8}]}`))
	f.Add([]byte(`{"slowdowns":[{"start":100,"end":200,"factor":0.25}],"crash":500}`))
	f.Add([]byte(`{"snapshot_drop":0.5,"snapshot_outages":[{"start":1,"end":2}],"harvest_outages":[{"start":1,"end":2}]}`))
	f.Add([]byte(`{"backend_crashes":[{"backend":3,"at":1200,"recover_at":2400}]}`))
	f.Add([]byte(`{"backend_brownouts":[{"backend":2,"start":600,"end":900,"factor":0.25}]}`))
	f.Add([]byte(`{"backend_dropouts":[{"backend":1,"start":600,"end":900}]}`))
	f.Add([]byte(`{"backend_crashes":[{"backend":0,"at":5}]}`))                         // 0 is not a roster ID
	f.Add([]byte(`{"backend_crashes":[{"backend":1,"at":5,"recover_at":4}]}`))          // recovery before crash
	f.Add([]byte(`{"backend_brownouts":[{"backend":1,"start":0,"end":9,"factor":0}]}`)) // factor 0 is a crash
	f.Add([]byte(`{"abort_rate":{"not-a-class":0.5}}`))                                 // non-integer class key
	f.Add([]byte(`{"abort_rate":{"1":0.1,"01":0.2}}`))                                  // one class spelled twice: the last key wins
	f.Add([]byte(`{"unknown_field":1}`))                                                // rejected by DisallowUnknownFields
	f.Add([]byte(`{"abort_rate":{"1":2.5}}`))                                           // out-of-range rate
	f.Add([]byte(`{"seed":`))                                                           // truncated JSON
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parsed plan must be valid: ParseSpec validates before returning.
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ParseSpec returned an invalid plan: %v", verr)
		}
	})
}
