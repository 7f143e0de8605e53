package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
	"time"
)

// Scenario describes one load shape. Scenarios live as JSON files — the
// seven built-ins are embedded below, and -scenario also accepts a path to
// a user-written file (same schema; scenarios/README.md says what each
// built-in is for and how to run the daemon under it).
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`

	Clients  int      `json:"clients"`  // concurrent worker connections
	Duration Duration `json:"duration"` // measured run length (after warmup)
	Warmup   Duration `json:"warmup"`   // unrecorded ramp-up
	Batch    int      `json:"batch"`    // updates per commit op
	Hotspot  float64  `json:"hotspot"`  // fraction of inserts aimed at shared hot keys
	// Think pauses each worker between ops, bounding the offered rate to
	// roughly Clients/Think — closed-loop pacing for scenarios that must
	// not outrun a replica (an HA standby applies the feed serially; a
	// firehose would legitimately get it cut for falling behind).
	Think Duration       `json:"think"`
	Mix   map[string]int `json:"mix"`
	// SlowClients additionally connect byte-at-a-time clients that never
	// complete a line; ExpectCutWithin > 0 makes -check require the server
	// to cut each of them within that budget.
	SlowClients     int      `json:"slow_clients"`
	ExpectCutWithin Duration `json:"expect_cut_within"`

	// Spike, when Multiplier > 0, joins Clients*Multiplier extra clients
	// during [At, At+Duration) — the overload phase the degradation
	// contract is asserted over.
	Spike struct {
		At         Duration `json:"at"`
		Duration   Duration `json:"duration"`
		Multiplier int      `json:"multiplier"`
	} `json:"spike"`

	// Fault, when Action is non-empty, injects a topology fault mid-run.
	// "failover" drains commits, kills the primary (-fault-exec), promotes
	// the standby (-failover-addr), and redirects every worker to it at
	// At. Workers reconnect through the fault instead of dying, and the
	// degradation contract stays asserted.
	Fault struct {
		At     Duration `json:"at"`
		Action string   `json:"action"`
	} `json:"fault"`

	// Check bounds for -check; zero values disable the individual checks.
	Check struct {
		P99Max              Duration `json:"p99_max"`                   // p99 of admitted ops, any phase
		MinSpikeTputFrac    float64  `json:"min_spike_throughput_frac"` // spike throughput / steady throughput
		MaxErrs             int      `json:"max_errs"`                  // non-shed op errors tolerated
		RequireShedsInSpike bool     `json:"require_sheds_in_spike"`    // a real overload must shed explicitly
	} `json:"check"`
}

// Duration is a time.Duration that scenario files spell as a string
// ("400ms"): encoding/json hands a text unmarshaler strings only, so a bare
// number is refused rather than read as nanoseconds.
type Duration time.Duration

func (d *Duration) UnmarshalText(b []byte) error {
	v, err := time.ParseDuration(string(b))
	*d = Duration(v)
	return err
}

func (d Duration) String() string { return time.Duration(d).String() }

//go:embed scenarios/*.json
var scenarioFS embed.FS

// builtinScenarios lists the embedded scenario names.
func builtinScenarios() []string {
	entries, _ := scenarioFS.ReadDir("scenarios")
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// loadScenario resolves name as a built-in first, then as a file path.
func loadScenario(name string) (*Scenario, error) {
	data, err := scenarioFS.ReadFile(path.Join("scenarios", name+".json"))
	if err != nil {
		data, err = os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: not a built-in (%s) and not a readable file",
				name, strings.Join(builtinScenarios(), ", "))
		}
	}
	return parseScenario(data)
}

func parseScenario(data []byte) (*Scenario, error) {
	if err := checkKeys(json.NewDecoder(bytes.NewReader(data))); err != nil {
		return nil, err
	}
	sc := &Scenario{Batch: 8}
	sc.Check.P99Max = Duration(2 * time.Second)
	sc.Check.MinSpikeTputFrac = 0.5
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: data after the closing brace")
	}
	for op := range sc.Mix {
		switch op {
		case "query", "answer", "commit":
		default:
			return nil, fmt.Errorf("mix: unknown op %q (want query|answer|commit)", op)
		}
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("scenario: name is required")
	}
	if sc.Clients <= 0 && sc.SlowClients <= 0 {
		return nil, fmt.Errorf("scenario %s: clients (or slow_clients) must be positive", sc.Name)
	}
	if sc.Duration <= 0 {
		return nil, fmt.Errorf("scenario %s: duration must be positive", sc.Name)
	}
	if len(sc.Mix) == 0 && sc.Clients > 0 {
		return nil, fmt.Errorf("scenario %s: mix must name at least one op weight", sc.Name)
	}
	if sc.Spike.Multiplier > 0 && !sc.spikeInside() {
		return nil, fmt.Errorf("scenario %s: spike window does not lie inside the run", sc.Name)
	}
	switch sc.Fault.Action {
	case "":
	case "failover":
		if sc.Fault.At <= 0 || sc.Fault.At >= sc.Duration {
			return nil, fmt.Errorf("scenario %s: fault.at must fall inside the run", sc.Name)
		}
	default:
		return nil, fmt.Errorf("fault.action: want failover")
	}
	return sc, nil
}

// spikeInside reports whether the spike window [At, At+Duration) lies
// inside the run. It adds no durations, so huge ones cannot wrap past the
// check.
func (sc *Scenario) spikeInside() bool {
	sp := sc.Spike
	return sp.At >= 0 && sp.Duration >= 0 && sp.At <= sc.Duration && sp.Duration <= sc.Duration-sp.At
}

// checkKeys walks one JSON value and refuses an object that names a key
// twice: encoding/json would keep the last and say nothing.
func checkKeys(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if tok == json.Delim('[') {
		return fmt.Errorf("scenario: lists are not part of the schema")
	}
	if tok != json.Delim('{') {
		return nil
	}
	seen := map[json.Token]bool{}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if seen[key] {
			return fmt.Errorf("scenario: duplicate key %q", key)
		}
		seen[key] = true
		if err := checkKeys(dec); err != nil {
			return err
		}
	}
	_, err = dec.Token()
	return err
}
