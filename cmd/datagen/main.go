// Command datagen writes workload graphs and update streams in the library
// text formats, for use with cmd/incgraph or external tooling.
//
// Usage:
//
//	datagen -dataset dbpedia -scale 0.1 -seed 1 -out graph.txt
//	datagen -dataset dbpedia -scale 0.1 -seed 1 -out graph.snap
//	datagen -graph graph.txt -updates 500 -ratio 0.5 -out du.txt
//
// A -out path ending in .snap writes the binary per-shard snapshot format
// instead of text; -graph accepts either format.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"incgraph"
	"incgraph/internal/graph"
)

func main() {
	dataset := flag.String("dataset", "", "generate a graph: dbpedia, livej or synthetic")
	scale := flag.Float64("scale", 1.0, "dataset scale")
	graphPath := flag.String("graph", "", "generate updates against this graph file instead")
	updates := flag.Int("updates", 0, "number of unit updates to generate")
	ratio := flag.Float64("ratio", 0.5, "insertion fraction (0.5 = paper's ρ=1)")
	locality := flag.Float64("locality", 0.9, "fraction of insertions that are 2-hop shortcuts")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	if err := run(*dataset, *scale, *graphPath, *updates, *ratio, *locality, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, graphPath string, updates int, ratio, locality float64, seed int64, out string) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch {
	case dataset != "":
		g, err := incgraph.Dataset(dataset, scale, seed)
		if err != nil {
			return err
		}
		// An .snap output selects the binary snapshot format, which
		// cmd/incgraph and cmd/incgraphd load in parallel per shard.
		if strings.HasSuffix(out, ".snap") {
			return incgraph.WriteSnapshot(w, g)
		}
		return incgraph.WriteGraph(w, g)
	case graphPath != "":
		if updates <= 0 {
			return fmt.Errorf("-updates must be positive")
		}
		g, err := incgraph.LoadGraphFile(graphPath)
		if err != nil {
			return err
		}
		batch := incgraph.RandomUpdates(g, incgraph.UpdateSpec{
			Count: updates, InsertRatio: ratio, Locality: locality, Seed: seed,
		})
		var lines []byte
		for _, u := range batch {
			lines = graph.AppendUpdate(lines, u)
		}
		_, err = w.Write(lines)
		return err
	default:
		return fmt.Errorf("need -dataset or -graph; see -h")
	}
}
