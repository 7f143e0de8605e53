// Command incgraph evaluates a query on a graph file, optionally applies an
// update file incrementally, and prints the answer and the delta.
//
// Graph files use the library text format ("n <id> <label>", "e <v> <w>")
// or the binary snapshot format (.snap, as written by cmd/datagen,
// incgraph.WriteSnapshotFile, or an incgraphd checkpoint); the format is
// sniffed, so a .snap file works anywhere a text graph does. Update files
// use one update per line: "+ <v> <w> [vlabel wlabel]" for an insertion,
// "- <v> <w>" for a deletion.
//
// Usage:
//
//	incgraph -graph g.txt -class rpq -query "a.b*.c" [-updates du.txt]
//	incgraph -graph g.snap -class kws -query "author,venue" -bound 2
//	incgraph -graph g.txt -class scc [-shards 8] [-workers 8]
//	incgraph -graph g.txt -class iso -pattern p.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"incgraph"
	"incgraph/internal/graph"
)

func main() {
	graphPath := flag.String("graph", "", "graph file (required)")
	class := flag.String("class", "", "query class: rpq, kws, scc, iso (required)")
	query := flag.String("query", "", "rpq expression or comma-separated kws keywords")
	bound := flag.Int("bound", 2, "kws distance bound b")
	patternPath := flag.String("pattern", "", "iso pattern graph file")
	updatesPath := flag.String("updates", "", "optional update file applied incrementally")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = all cores, 1 = sequential)")
	shards := flag.Int("shards", 0, "graph shard count, rounded to a power of two (0 = default, 1 = unsharded)")
	verbose := flag.Bool("v", false, "print full answers, not just counts")
	flag.Parse()

	if err := run(*graphPath, *class, *query, *bound, *patternPath, *updatesPath, *workers, *shards, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "incgraph: %v\n", err)
		os.Exit(1)
	}
}

func run(graphPath, class, query string, bound int, patternPath, updatesPath string, workers, shards int, verbose bool) error {
	if graphPath == "" || class == "" {
		return fmt.Errorf("-graph and -class are required")
	}
	g, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	g.SetParallelism(workers)
	if shards != 0 {
		g.SetShards(shards)
	}
	fmt.Printf("graph: %d nodes, %d edges (%d workers, %d shards)\n",
		g.NumNodes(), g.NumEdges(), g.Parallelism(), g.NumShards())

	var batch incgraph.Batch
	if updatesPath != "" {
		batch, err = loadUpdates(updatesPath)
		if err != nil {
			return err
		}
	}

	switch strings.ToLower(class) {
	case "rpq":
		if query == "" {
			return fmt.Errorf("rpq needs -query")
		}
		e, err := incgraph.NewRPQ(g, query)
		if err != nil {
			return err
		}
		fmt.Printf("rpq %q: %d matches\n", query, e.NumMatches())
		if verbose {
			for _, p := range e.Matches() {
				fmt.Printf("  (%d,%d)\n", p.Src, p.Dst)
			}
		}
		if batch != nil {
			d, err := e.Apply(batch)
			if err != nil {
				return err
			}
			fmt.Printf("after %d updates: %d matches (+%d −%d)\n",
				len(batch), e.NumMatches(), len(d.Added), len(d.Removed))
		}
	case "kws":
		if query == "" {
			return fmt.Errorf("kws needs -query (comma-separated keywords)")
		}
		q := incgraph.KWSQuery{Keywords: strings.Split(query, ","), Bound: bound}
		ix, err := incgraph.NewKWS(g, q)
		if err != nil {
			return err
		}
		fmt.Printf("kws %v b=%d: %d match roots\n", q.Keywords, q.Bound, ix.NumMatches())
		if verbose {
			for _, r := range ix.MatchRoots() {
				m, _ := ix.MatchAt(r)
				fmt.Printf("  root %d dists %v\n", r, m.Dists)
			}
		}
		if batch != nil {
			d, err := ix.Apply(batch)
			if err != nil {
				return err
			}
			fmt.Printf("after %d updates: %d roots (+%d −%d ~%d)\n",
				len(batch), ix.NumMatches(), len(d.Added), len(d.Removed), len(d.Updated))
		}
	case "scc":
		s := incgraph.NewSCC(g)
		fmt.Printf("scc: %d components\n", s.NumComponents())
		if verbose {
			for _, c := range s.ComponentsSorted() {
				if len(c) > 1 {
					fmt.Printf("  %v\n", c)
				}
			}
		}
		if batch != nil {
			d, err := s.Apply(batch)
			if err != nil {
				return err
			}
			fmt.Printf("after %d updates: %d components (+%d −%d)\n",
				len(batch), s.NumComponents(), len(d.Added), len(d.Removed))
		}
	case "iso":
		if patternPath == "" {
			return fmt.Errorf("iso needs -pattern")
		}
		pg, err := loadGraph(patternPath)
		if err != nil {
			return err
		}
		p, err := incgraph.NewPattern(pg)
		if err != nil {
			return err
		}
		ix := incgraph.NewISO(g, p)
		fmt.Printf("iso pattern (%d nodes, diameter %d): %d matches\n",
			len(p.Nodes()), p.Diameter(), ix.NumMatches())
		if verbose {
			for _, m := range ix.Matches() {
				fmt.Printf("  %v\n", m)
			}
		}
		if batch != nil {
			d, err := ix.Apply(batch)
			if err != nil {
				return err
			}
			fmt.Printf("after %d updates: %d matches (+%d −%d)\n",
				len(batch), ix.NumMatches(), len(d.Added), len(d.Removed))
		}
	default:
		return fmt.Errorf("unknown class %q", class)
	}
	return nil
}

// loadGraph accepts both graph formats: binary snapshots load via the
// parallel per-shard path, anything else parses as text.
func loadGraph(path string) (*incgraph.Graph, error) {
	return incgraph.LoadGraphFile(path)
}

func loadUpdates(path string) (incgraph.Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var batch incgraph.Batch
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		u, err := graph.ParseUpdate(strings.Fields(text))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		batch = append(batch, u)
	}
	return batch, sc.Err()
}
