package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseScenarioValidation(t *testing.T) {
	const ok = `"name": "x", "clients": 2, "duration": "1s", "mix": {"query": 1}`
	cases := map[string]string{
		"missing name":     `{"clients": 2, "duration": "1s", "mix": {"query": 1}}`,
		"no clients":       `{"name": "x", "duration": "1s", "mix": {"query": 1}}`,
		"no duration":      `{"name": "x", "clients": 2, "mix": {"query": 1}}`,
		"no mix":           `{"name": "x", "clients": 2, "duration": "1s"}`,
		"unknown op":       `{"name": "x", "clients": 2, "duration": "1s", "mix": {"frobnicate": 1}}`,
		"unknown key":      `{` + ok + `, "bogus": 7}`,
		"spike past end":   `{` + ok + `, "spike": {"at": "900ms", "duration": "500ms", "multiplier": 2}}`,
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
	for name, in := range cases {
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
