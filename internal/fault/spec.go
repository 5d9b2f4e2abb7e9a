// JSON fault-plan specs — the on-disk format behind qsim/qsweep's
// -faults flag. The format is Plan itself, named by its json tags.
// Class IDs are JSON object keys, so they appear as strings of decimal
// integers; windows are {"start": s, "end": e} pairs in virtual seconds,
// written flat inside the windowed faults.
//
//	{
//	  "seed": 7,
//	  "abort_rate": {"1": 0.15, "2": 0.15},
//	  "abort_bursts": [{"start": 3600, "end": 7200, "class": 2, "rate": 0.8}],
//	  "misestimate": {"1": 3, "2": 3},
//	  "slowdowns": [{"start": 28800, "end": 30000, "factor": 0.25}],
//	  "snapshot_drop": 0.5,
//	  "snapshot_outages": [{"start": 14400, "end": 18000}],
//	  "harvest_outages": [{"start": 14400, "end": 18000}],
//	  "backend_crashes": [{"backend": 3, "at": 1200, "recover_at": 2400}],
//	  "backend_brownouts": [{"backend": 2, "start": 600, "end": 900, "factor": 0.25}],
//	  "backend_dropouts": [{"backend": 1, "start": 600, "end": 900}]
//	}
//
// The backend_* fields are fleet-only (1-based roster IDs); single-
// engine runs reject plans that use them.
// abort_rate keys are class IDs in 0..MaxAbortClass.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
)

// ParseSpec reads a JSON fault plan straight into a Plan. Unknown
// fields are rejected (a typo must not silently disable a fault), and
// the resulting plan is validated. A class key written twice (say "1"
// and "01") resolves to the last one in the document.
func ParseSpec(r io.Reader) (Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: parse spec: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
