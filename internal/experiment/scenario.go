// JSON scenario definitions: run a custom mix of service classes, goals,
// and a client schedule through any of the controllers without writing
// Go. Used by `qsim -scenario file.json`; see examples/scenarios/.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// ScenarioSpec is the JSON shape of a custom experiment.
type ScenarioSpec struct {
	// Name labels the scenario in output.
	Name string `json:"name"`
	// Mode is one of "no-control", "qp-priority", "qp-no-priority",
	// "query-scheduler".
	Mode string `json:"mode"`
	// Seed is the run's random seed (default 1).
	Seed uint64 `json:"seed"`
	// PeriodMinutes is the length of every schedule period.
	PeriodMinutes float64 `json:"period_minutes"`
	// Classes defines the service classes in order; the i-th entry of
	// each Periods row is the client count for Classes[i].
	Classes []ScenarioClass `json:"classes"`
	// Periods lists client counts per period, one row per period.
	Periods [][]int `json:"periods"`
	// SystemCostLimit overrides the default 30,000 timerons (optional).
	SystemCostLimit float64 `json:"system_cost_limit"`
	// ControlIntervalSeconds overrides the Query Scheduler's re-planning
	// period (optional).
	ControlIntervalSeconds float64 `json:"control_interval_seconds"`
	// Backends lists the roster (optional; default one paper-default
	// engine). Two or more entries run the scenario on a fleet behind
	// the routing tier. Each entry may override the engine's CPU/IO
	// capacity, so heterogeneous fleets are plain configuration.
	Backends []ScenarioBackend `json:"backends"`
}

// ScenarioBackend is one fleet backend in a scenario file.
type ScenarioBackend struct {
	Name string `json:"name"`
	// CPUCapacity / IOCapacity override the engine defaults (0 = paper
	// default).
	CPUCapacity float64 `json:"cpu_capacity"`
	IOCapacity  float64 `json:"io_capacity"`
	// Affinity biases the router toward this backend for a class, keyed
	// by 1-based class index ("1", "2", ...); values must be positive. A
	// key written twice (say "1" and "01") resolves to the last one.
	Affinity map[int]float64 `json:"affinity"`
}

// ScenarioClass is one service class in a scenario file.
type ScenarioClass struct {
	Name string `json:"name"`
	// Kind is "olap" or "oltp".
	Kind string `json:"kind"`
	// GoalMetric is "velocity" or "response_time".
	GoalMetric string  `json:"goal_metric"`
	GoalTarget float64 `json:"goal_target"`
	Importance int     `json:"importance"`
}

// Scenario is a parsed, validated scenario: its label and the mixed
// run it describes. The caller adds what the JSON spec does not carry
// (writers, a fault plan, checkpointing) and runs the config.
type Scenario struct {
	Name string
	MixedConfig
}

// ParseScenario reads and validates a JSON scenario. The run's
// Experiment label is the scenario's name, or "scenario" without one.
func ParseScenario(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec ScenarioSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return buildScenario(spec)
}

func buildScenario(spec ScenarioSpec) (*Scenario, error) {
	s := &Scenario{Name: spec.Name}
	s.Experiment, s.Seed = spec.Name, spec.Seed
	if s.Experiment == "" {
		s.Experiment = "scenario"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch spec.Mode {
	case "no-control", "":
		s.Mode = NoControl
	case "qp-priority":
		s.Mode = QPPriority
	case "qp-no-priority":
		s.Mode = QPNoPriority
	case "query-scheduler":
		s.Mode = QueryScheduler
	default:
		return nil, fmt.Errorf("scenario: unknown mode %q", spec.Mode)
	}

	if len(spec.Classes) == 0 {
		return nil, fmt.Errorf("scenario: no classes")
	}
	oltpCount := 0
	for i, sc := range spec.Classes {
		c := &workload.Class{
			ID:         engine.ClassID(i + 1),
			Name:       sc.Name,
			Importance: sc.Importance,
		}
		if c.Name == "" {
			c.Name = fmt.Sprintf("Class %d", i+1)
		}
		if c.Importance < 1 {
			return nil, fmt.Errorf("scenario: class %q importance %d < 1", c.Name, sc.Importance)
		}
		switch sc.Kind {
		case "olap":
			c.Kind = workload.OLAP
		case "oltp":
			c.Kind = workload.OLTP
			oltpCount++
		default:
			return nil, fmt.Errorf("scenario: class %q has unknown kind %q", c.Name, sc.Kind)
		}
		switch sc.GoalMetric {
		case "velocity":
			if sc.GoalTarget <= 0 || sc.GoalTarget > 1 {
				return nil, fmt.Errorf("scenario: class %q velocity goal %v out of (0,1]", c.Name, sc.GoalTarget)
			}
			c.Goal = workload.Goal{Metric: workload.Velocity, Target: sc.GoalTarget}
		case "response_time":
			if sc.GoalTarget <= 0 {
				return nil, fmt.Errorf("scenario: class %q response-time goal %v must be positive", c.Name, sc.GoalTarget)
			}
			c.Goal = workload.Goal{Metric: workload.AvgResponseTime, Target: sc.GoalTarget}
		default:
			return nil, fmt.Errorf("scenario: class %q has unknown goal metric %q", c.Name, sc.GoalMetric)
		}
		s.Classes = append(s.Classes, c)
	}
	if oltpCount > 1 {
		return nil, fmt.Errorf("scenario: at most one OLTP class is supported, got %d", oltpCount)
	}

	if spec.PeriodMinutes <= 0 {
		return nil, fmt.Errorf("scenario: period_minutes %v must be positive", spec.PeriodMinutes)
	}
	if len(spec.Periods) == 0 {
		return nil, fmt.Errorf("scenario: no periods")
	}
	s.Sched = workload.Schedule{PeriodSeconds: spec.PeriodMinutes * 60}
	for p, row := range spec.Periods {
		if len(row) != len(s.Classes) {
			return nil, fmt.Errorf("scenario: period %d has %d counts for %d classes",
				p+1, len(row), len(s.Classes))
		}
		counts := make(map[engine.ClassID]int, len(row))
		for i, n := range row {
			counts[s.Classes[i].ID] = n
		}
		s.Sched.Clients = append(s.Sched.Clients, counts)
	}

	if len(spec.Backends) > 0 {
		for i, sb := range spec.Backends {
			bs := backend.Spec{
				Name:        sb.Name,
				CPUCapacity: sb.CPUCapacity,
				IOCapacity:  sb.IOCapacity,
			}
			if bs.Name == "" {
				bs.Name = fmt.Sprintf("b%d", i+1)
			}
			if bs.CPUCapacity < 0 || bs.IOCapacity < 0 {
				return nil, fmt.Errorf("scenario: backend %q has negative capacity", bs.Name)
			}
			// Checked in key order, so the error names the same key on
			// every parse.
			ids := make([]int, 0, len(sb.Affinity))
			for id := range sb.Affinity {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				w := sb.Affinity[id]
				if id < 1 || id > len(s.Classes) {
					return nil, fmt.Errorf("scenario: backend %q affinity key %d is not a class index in 1..%d",
						bs.Name, id, len(s.Classes))
				}
				if w <= 0 {
					return nil, fmt.Errorf("scenario: backend %q affinity for class %d must be positive, got %v",
						bs.Name, id, w)
				}
				if bs.Affinity == nil {
					bs.Affinity = make(map[engine.ClassID]float64, len(sb.Affinity))
				}
				bs.Affinity[engine.ClassID(id)] = w
			}
			s.Backends = append(s.Backends, bs)
		}
	}

	if spec.SystemCostLimit != 0 || spec.ControlIntervalSeconds != 0 {
		cfg := core.DefaultConfig()
		if spec.SystemCostLimit != 0 {
			cfg.SystemCostLimit = spec.SystemCostLimit
		}
		if spec.ControlIntervalSeconds != 0 {
			cfg.ControlInterval = spec.ControlIntervalSeconds
		}
		s.QS = &cfg
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}
