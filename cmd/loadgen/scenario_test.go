package main

import (
	"strings"
	"testing"
	"time"
)

// validationCases are scenario files parseScenario must refuse, by what is
// wrong with each.
var validationCases = func() map[string]string {
	const ok = `"name": "x", "clients": 2, "duration": "1s", "mix": {"query": 1}`
	return map[string]string{
		"missing name":     `{"clients": 2, "duration": "1s", "mix": {"query": 1}}`,
		"no clients":       `{"name": "x", "duration": "1s", "mix": {"query": 1}}`,
		"no duration":      `{"name": "x", "clients": 2, "mix": {"query": 1}}`,
		"no mix":           `{"name": "x", "clients": 2, "duration": "1s"}`,
		"unknown op":       `{"name": "x", "clients": 2, "duration": "1s", "mix": {"frobnicate": 1}}`,
		"unknown key":      `{` + ok + `, "bogus": 7}`,
		"spike past end":   `{` + ok + `, "spike": {"at": "900ms", "duration": "500ms", "multiplier": 2}}`,
		"spike wraps":      `{` + ok + `, "spike": {"at": "2562047h", "duration": "2562047h", "multiplier": 2}}`,
		"spike before run": `{` + ok + `, "spike": {"at": "-1s", "duration": "500ms", "multiplier": 2}}`,
		"non-numeric int":  `{"name": "x", "clients": "two", "duration": "1s", "mix": {"query": 1}}`,
		"non-duration dur": `{"name": "x", "clients": 2, "duration": "soon", "mix": {"query": 1}}`,
		"bad fault action": `{` + ok + `, "fault": {"action": "explode", "at": "500ms"}}`,
		"rebalance fault":  `{` + ok + `, "fault": {"action": "rebalance", "at": "500ms"}}`,
		"fault past end":   `{` + ok + `, "fault": {"action": "failover", "at": "2s"}}`,
		"unknown nested":   `{` + ok + `, "check": {"p99_maximum": "2s"}}`,
		"duplicate key":    `{` + ok + `, "clients": 3}`,
		"duplicate nested": `{"name": "x", "clients": 2, "duration": "1s", "mix": {"query": 1, "query": 2}}`,
		"number as dur":    `{"name": "x", "clients": 2, "duration": 1000000000, "mix": {"query": 1}}`,
		"list":             `{` + ok + `, "mix": [1]}`,
		"trailing data":    `{` + ok + `} {}`,
		"not json":         "name: x\nclients: 2\n",
	}
}()

func TestParseScenarioValidation(t *testing.T) {
	const ok = `"name": "x", "clients": 2, "duration": "1s", "mix": {"query": 1}`
	for name, in := range validationCases {
		if _, err := parseScenario([]byte(in)); err == nil {
			t.Errorf("%s: validated without error", name)
		}
	}
	sc, err := parseScenario([]byte(`{` + ok + `, "check": {"max_errs": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Batch != 8 || sc.Check.P99Max != Duration(2*time.Second) || sc.Check.MinSpikeTputFrac != 0.5 || sc.Check.MaxErrs != 1 {
		t.Fatalf("defaults not applied: %+v", sc)
	}
}

// Every embedded scenario must load; they are the CLI's public surface.
func TestBuiltinScenariosLoad(t *testing.T) {
	names := builtinScenarios()
	if len(names) != 7 {
		t.Fatalf("want 7 built-in scenarios, have %v", names)
	}
	for _, name := range names {
		sc, err := loadScenario(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sc.Name != name {
			t.Errorf("file %s declares name %q", name, sc.Name)
		}
		if sc.Description == "" {
			t.Errorf("%s: no description", name)
		}
	}
	if _, err := loadScenario("no-such-scenario"); err == nil ||
		!strings.Contains(err.Error(), "not a built-in") {
		t.Fatalf("unknown scenario: err = %v, want the built-in listing", err)
	}
}

// FuzzParseScenario feeds the scenario parser arbitrary bytes. It must
// never panic, must return a scenario exactly when it returns no error,
// and a scenario it accepts must hold every rule the parser enforces: the
// run has a name, a positive duration and someone to run it, every mix
// weight names a known op, and the spike and the fault fall inside the run.
// The seeds are the built-in scenarios and the refused cases of
// TestParseScenarioValidation.
func FuzzParseScenario(f *testing.F) {
	for _, name := range builtinScenarios() {
		data, err := scenarioFS.ReadFile("scenarios/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range validationCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := parseScenario(data)
		if (sc == nil) == (err == nil) {
			t.Fatalf("parseScenario returned %+v and %v", sc, err)
		}
		if err != nil {
			return
		}
		if sc.Name == "" || sc.Duration <= 0 || sc.Clients <= 0 && sc.SlowClients <= 0 {
			t.Fatalf("accepted a scenario without a name, a duration or clients: %+v", sc)
		}
		if sc.Clients > 0 && len(sc.Mix) == 0 {
			t.Fatalf("accepted clients without a mix: %+v", sc)
		}
		for op := range sc.Mix {
			if op != "query" && op != "answer" && op != "commit" {
				t.Fatalf("accepted mix op %q", op)
			}
		}
		if sp := sc.Spike; sp.Multiplier > 0 && (sp.At < 0 || sp.Duration < 0 || uint64(sp.At)+uint64(sp.Duration) > uint64(sc.Duration)) {
			t.Fatalf("accepted a spike outside the run: %+v", sc)
		}
		if sc.Fault.Action != "" && (sc.Fault.Action != "failover" || sc.Fault.At <= 0 || sc.Fault.At >= sc.Duration) {
			t.Fatalf("accepted fault %+v in a %v run", sc.Fault, sc.Duration)
		}
	})
}
