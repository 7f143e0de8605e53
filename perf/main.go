// Command perf is the repository's benchmark. It starts ./cmd/incgraphd as
// a separate process on a generated snapshot with standing queries, drives
// a generated cycle of update batches through it over loopback TCP and
// reports what a client and an operator see (the end-to-end metrics, in
// time of a reference machine: see pace.go); with -trace 1 it also replays
// the same batches in-process through the same stack with a span around
// every call into a layer, and reports where the time went (the per-layer
// metrics). See README.md.
//
// The benchmark driver runs
//
//	sh perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. Without -trace the command
// runs every workload (or the one named) -repeats times, prints one table
// of every metric and writes perf/out/result.json; -aa does that twice and
// compares the two sets against the metrics' bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all)")
		seed         = flag.Int64("seed", 1, "seed of the update-stream generator")
		seconds      = flag.Float64("seconds", 0, "length of the timed window: whole cycles until it is over (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of one run as a JSON line, 1 the per-layer metrics")
		repeats      = flag.Int("repeats", 5, "table mode: runs per workload; each metric is the median over them")
		aa           = flag.Bool("aa", false, "run two complete sets on the same build and compare them against the bounds")
	)
	flag.Parse()
	if err := mainErr(*workloadName, *seed, *seconds, *trace, *repeats, *aa); err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workloadName string, seed int64, seconds float64, trace, repeats int, aa bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	decl, err := readDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(decl.RunSeconds)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{ctx: ctx, root: root, bin: bin, decl: decl, seconds: seconds}

	if trace >= 0 {
		// Driver mode: one run of one workload, one JSON line.
		w, err := findWorkload(workloadName)
		if err != nil {
			return err
		}
		res, err := b.runOnce(w, seed, trace == 1)
		if err != nil {
			return err
		}
		for _, p := range res.Problems {
			fmt.Fprintf(os.Stderr, "perf: %s: %s\n", w.name, p)
		}
		defs := decl.EndToEnd
		if trace == 1 {
			defs = decl.PerLayer
		}
		line, err := res.driverLine(defs)
		if err != nil {
			return err
		}
		fmt.Println(line)
		return nil
	}

	selected := workloads
	if workloadName != "" {
		w, err := findWorkload(workloadName)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	if aa {
		return b.runAA(selected, seed, repeats)
	}
	set, err := b.runSet(selected, seed, repeats)
	if err != nil {
		return err
	}
	set.printTable(os.Stdout, decl)
	if err := writeJSON(filepath.Join(root, "perf", "out", "result.json"), set); err != nil {
		return err
	}
	if !set.ok() {
		return fmt.Errorf("a workload failed its correctness gate or a validity guard")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
