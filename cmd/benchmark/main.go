// Command benchmark regenerates the paper's experimental figures and
// tables. The experiment index is the figure registry of internal/bench
// (figures.go); an unknown -fig name prints it.
//
// Usage:
//
//	benchmark [-fig 8a,8b,... | -fig all] [-scale 1.0] [-seed 1] [-points 0] [-workers 0] [-shards 0] [-json]
//	benchmark -store [-json]        # durability: snapshot-load vs text-rebuild
//	benchmark -cluster [-json]      # distribution: coordinator+2 workers vs single process
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"incgraph/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "comma-separated experiment IDs (8a..8p, unit, opt) or 'all'")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier (1.0 = default bench size)")
	seed := flag.Int64("seed", 1, "workload seed")
	points := flag.Int("points", 0, "truncate each sweep to N points (0 = full sweep)")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = all cores, 1 = sequential baseline)")
	shards := flag.Int("shards", 0, "graph shard count, rounded to a power of two (0 = default, 1 = unsharded baseline)")
	storeMode := flag.Bool("store", false, "run only the durability experiment: snapshot-load vs text-rebuild timings")
	clusterMode := flag.Bool("cluster", false, "run only the distribution experiment: distributed vs single-process ΔG apply")
	list := flag.Bool("list", false, "list available experiments and exit")
	asJSON := flag.Bool("json", false, "emit one JSON object per experiment (id, points, ns/op) instead of tables")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Figures(), "\n"))
		return
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed, MaxPoints: *points, Workers: *workers, Shards: *shards}
	ids := bench.Figures()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
	}
	if *storeMode {
		ids = []string{"store"}
	}
	if *clusterMode {
		ids = []string{"cluster"}
	}
	for _, id := range ids {
		res, err := bench.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		emit := res.Format
		if *asJSON {
			emit = res.FormatJSON
		}
		if err := emit(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
}
