// JSON fault-plan specs — the on-disk format behind qsim/qsweep's
// -faults flag. Class IDs are JSON object keys, so they appear as
// strings; windows are {"start": s, "end": e} pairs in virtual seconds.
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
	"strconv"

	"repro/internal/engine"
)

type jsonWindow struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

type jsonBurst struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Class int     `json:"class"`
	Rate  float64 `json:"rate"`
}

type jsonSlowdown struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Factor float64 `json:"factor"`
}

type jsonBackendCrash struct {
	Backend   int     `json:"backend"`
	At        float64 `json:"at"`
	RecoverAt float64 `json:"recover_at"`
}

type jsonBackendSlowdown struct {
	Backend int     `json:"backend"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Factor  float64 `json:"factor"`
}

type jsonBackendOutage struct {
	Backend int     `json:"backend"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
}

type jsonPlan struct {
	Seed             uint64                `json:"seed"`
	AbortRate        map[string]float64    `json:"abort_rate"`
	AbortBursts      []jsonBurst           `json:"abort_bursts"`
	Misestimate      map[string]float64    `json:"misestimate"`
	Slowdowns        []jsonSlowdown        `json:"slowdowns"`
	SnapshotDrop     float64               `json:"snapshot_drop"`
	SnapshotOutages  []jsonWindow          `json:"snapshot_outages"`
	HarvestOutages   []jsonWindow          `json:"harvest_outages"`
	Crash            float64               `json:"crash"`
	BackendCrashes   []jsonBackendCrash    `json:"backend_crashes"`
	BackendBrownouts []jsonBackendSlowdown `json:"backend_brownouts"`
	BackendDropouts  []jsonBackendOutage   `json:"backend_dropouts"`
}

// ParseSpec reads a JSON fault plan. Unknown fields are rejected (a typo
// must not silently disable a fault), and the resulting plan is
// validated.
func ParseSpec(r io.Reader) (Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var js jsonPlan
	if err := dec.Decode(&js); err != nil {
		return Plan{}, fmt.Errorf("fault: parse spec: %w", err)
	}
	p := Plan{
		Seed:         js.Seed,
		SnapshotDrop: js.SnapshotDrop,
		Crash:        js.Crash,
	}
	var err error
	if p.AbortRate, err = classMap(js.AbortRate, "abort_rate"); err != nil {
		return Plan{}, err
	}
	if p.Misestimate, err = classMap(js.Misestimate, "misestimate"); err != nil {
		return Plan{}, err
	}
	for _, b := range js.AbortBursts {
		p.AbortBursts = append(p.AbortBursts, Burst{
			Window: Window{Start: b.Start, End: b.End},
			Class:  engine.ClassID(b.Class),
			Rate:   b.Rate,
		})
	}
	for _, s := range js.Slowdowns {
		p.Slowdowns = append(p.Slowdowns, Slowdown{
			Window: Window{Start: s.Start, End: s.End},
			Factor: s.Factor,
		})
	}
	for _, w := range js.SnapshotOutages {
		p.SnapshotOutages = append(p.SnapshotOutages, Window(w))
	}
	for _, w := range js.HarvestOutages {
		p.HarvestOutages = append(p.HarvestOutages, Window(w))
	}
	for _, bc := range js.BackendCrashes {
		p.BackendCrashes = append(p.BackendCrashes, BackendCrash{
			Backend: bc.Backend, At: bc.At, RecoverAt: bc.RecoverAt,
		})
	}
	for _, bs := range js.BackendBrownouts {
		p.BackendBrownouts = append(p.BackendBrownouts, BackendSlowdown{
			Backend: bs.Backend,
			Window:  Window{Start: bs.Start, End: bs.End},
			Factor:  bs.Factor,
		})
	}
	for _, bo := range js.BackendDropouts {
		p.BackendDropouts = append(p.BackendDropouts, BackendOutage{
			Backend: bo.Backend,
			Window:  Window{Start: bo.Start, End: bo.End},
		})
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// classMap converts string class-ID keys to engine.ClassID.
func classMap(m map[string]float64, field string) (map[engine.ClassID]float64, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[engine.ClassID]float64, len(m))
	for k, v := range m {
		id, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("fault: %s: class key %q is not an integer", field, k)
		}
		out[engine.ClassID(id)] = v
	}
	return out, nil
}
