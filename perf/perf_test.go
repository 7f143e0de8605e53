package main

import (
	"context"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmoke runs every workload once at a tiny size, end to end and
// traced, and pins the metric names a run emits to the names
// BENCHMARK.json declares: later issues refer to metrics and workloads by
// these names.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := readDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}

	var declared, have []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalSets(declared, have) {
		t.Fatalf("workloads: BENCHMARK.json declares %v, perf has %v", declared, have)
	}
	var names []string
	for _, def := range append(append([]metricDef(nil), decl.EndToEnd...), decl.PerLayer...) {
		names = append(names, def.Name)
	}

	b := &bench{ctx: context.Background(), root: root, bin: bin, decl: decl, seconds: 0.1, small: true}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := b.runOnce(w, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("not correct: %d of %d operations failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			var emitted []string
			for name := range res.Metrics {
				emitted = append(emitted, name)
			}
			if !equalSets(names, emitted) {
				t.Errorf("metric names differ: emitted but not declared %v, declared but not emitted %v",
					minus(emitted, names), minus(names, emitted))
			}
			for _, defs := range [][]metricDef{decl.EndToEnd, decl.PerLayer} {
				if _, err := res.driverLine(defs); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// minus returns the elements of a that are not in b.
func minus(a, b []string) []string {
	in := make(map[string]bool)
	for _, x := range b {
		in[x] = true
	}
	var out []string
	for _, x := range a {
		if !in[x] {
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	return len(minus(a, b)) == 0 && len(minus(b, a)) == 0
}
