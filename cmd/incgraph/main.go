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
//	incgraph -graph g.txt -class scc [-workers 8]
//	incgraph -graph g.txt -class iso -pattern p.txt
package main

import (
	"bufio"
	"bytes"
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
	verbose := flag.Bool("v", false, "print the answer's rows (as incgraphd's answer serves them), not just counts")
	flag.Parse()

	if err := run(*graphPath, *class, *query, *bound, *patternPath, *updatesPath, *workers, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "incgraph: %v\n", err)
		os.Exit(1)
	}
}

func run(graphPath, class, query string, bound int, patternPath, updatesPath string, workers int, verbose bool) error {
	if graphPath == "" || class == "" {
		return fmt.Errorf("-graph and -class are required")
	}
	g, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	g.SetParallelism(workers)
	fmt.Printf("graph: %d nodes, %d edges (%d workers)\n",
		g.NumNodes(), g.NumEdges(), g.Parallelism())

	var batch incgraph.Batch
	if updatesPath != "" {
		batch, err = loadUpdates(updatesPath)
		if err != nil {
			return err
		}
	}

	// The class decides the engine and how its answer is named; the rest is
	// the same for every class.
	var m incgraph.Maintained
	var title, rows, after string // "<title>: N <rows>", "after K updates: N <after> (+a −b)"
	switch class = strings.ToLower(class); class {
	case "rpq":
		if query == "" {
			return fmt.Errorf("rpq needs -query")
		}
		e, err := incgraph.NewRPQ(g, query)
		if err != nil {
			return err
		}
		m, title, rows, after = incgraph.MaintainRPQ(e), fmt.Sprintf("rpq %q", query), "matches", "matches"
	case "kws":
		if query == "" {
			return fmt.Errorf("kws needs -query (comma-separated keywords)")
		}
		q := incgraph.KWSQuery{Keywords: strings.Split(query, ","), Bound: bound}
		ix, err := incgraph.NewKWS(g, q)
		if err != nil {
			return err
		}
		m, title, rows, after = incgraph.MaintainKWS(ix), fmt.Sprintf("kws %v b=%d", q.Keywords, q.Bound), "match roots", "roots"
	case "scc":
		m, title, rows, after = incgraph.MaintainSCC(incgraph.NewSCC(g)), "scc", "components", "components"
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
		title = fmt.Sprintf("iso pattern (%d nodes, diameter %d)", len(p.Nodes()), p.Diameter())
		m, rows, after = incgraph.MaintainISO(incgraph.NewISO(g, p)), "matches", "matches"
	default:
		return fmt.Errorf("unknown class %q", class)
	}
	fmt.Printf("%s: %d %s\n", title, m.Size(), rows)
	if verbose {
		if err := m.WriteAnswer(os.Stdout); err != nil {
			return err
		}
	}
	if batch == nil {
		return nil
	}
	d, err := m.Apply(batch)
	if err != nil {
		return err
	}
	fmt.Printf("after %d updates: %d %s (+%d −%d", len(batch), m.Size(), after, d.Added, d.Removed)
	// Only a kws row changes in place (a root's distances move).
	if class == "kws" {
		fmt.Printf(" ~%d", d.Updated)
	}
	fmt.Println(")")
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
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		u, err := graph.ParseUpdate(text)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		batch = append(batch, u)
	}
	return batch, sc.Err()
}
