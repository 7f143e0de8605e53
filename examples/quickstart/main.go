// Quickstart: build a small labeled graph, answer all four query classes of
// Fan, Hu & Tian (SIGMOD 2017), then apply one batch of updates and watch
// each incremental algorithm repair its answer without recomputation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"incgraph"
)

func main() {
	// A tiny bibliographic graph: papers cite papers, papers have authors
	// and venues.
	g := incgraph.NewGraph()
	add := func(id incgraph.NodeID, label string) { g.AddNode(id, label) }
	add(1, "paper")
	add(2, "paper")
	add(3, "paper")
	add(10, "author")
	add(11, "author")
	add(20, "venue")
	g.AddEdge(1, 2) // paper1 cites paper2
	g.AddEdge(2, 3) // paper2 cites paper3
	g.AddEdge(3, 1) // paper3 cites paper1 — a citation cycle
	g.AddEdge(1, 10)
	g.AddEdge(2, 10)
	g.AddEdge(2, 11)
	g.AddEdge(3, 20)

	// RPQ: which nodes are connected by a citation chain ending at a venue?
	rpq, err := incgraph.NewRPQ(g.Clone(), "paper.paper*.venue")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RPQ  paper.paper*.venue  → %d matches: %v\n", rpq.Size(), rpq.Matches())

	// SCC: the citation cycle is one strongly connected component.
	scc := incgraph.NewSCC(g.Clone())
	fmt.Printf("SCC  → %d components\n", scc.Size())

	// KWS: papers within 1 hop of both an author and a venue.
	kws, err := incgraph.NewKWS(g.Clone(), incgraph.KWSQuery{Keywords: []string{"author", "venue"}, Bound: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KWS  (author,venue) b=1 → roots %v\n", kws.MatchRoots())

	// ISO: the co-citation motif paper→author←paper.
	pg := incgraph.NewGraph()
	pg.AddNode(0, "paper")
	pg.AddNode(1, "author")
	pg.AddNode(2, "paper")
	pg.AddEdge(0, 1)
	pg.AddEdge(2, 1)
	pattern, err := incgraph.NewPattern(pg)
	if err != nil {
		log.Fatal(err)
	}
	iso := incgraph.NewISO(g.Clone(), pattern)
	fmt.Printf("ISO  co-citation motif  → %d matches\n", iso.Size())

	// One batch of updates: a new paper appears citing paper1, the cycle is
	// broken, and paper3 gains an author.
	batch := incgraph.Batch{
		incgraph.InsNew(4, 1, "paper", ""), // new paper4 cites paper1
		incgraph.Del(3, 1),                 // paper3 no longer cites paper1
		incgraph.Ins(3, 10),                // paper3 gains author10
	}
	fmt.Printf("\napplying ΔG = %v\n\n", batch)

	// Each structure owns a clone of the base graph and repairs itself
	// incrementally; deltas report ΔO.
	d1, err := rpq.Apply(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RPQ  now %d matches (+%d −%d)\n", rpq.Size(), len(d1.Added), len(d1.Removed))

	d2, err := scc.Apply(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SCC  now %d components (+%d −%d): cycle broken\n",
		scc.Size(), len(d2.Added), len(d2.Removed))

	d3, err := kws.Apply(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KWS  now roots %v (+%d −%d ~%d)\n",
		kws.MatchRoots(), len(d3.Added), len(d3.Removed), len(d3.Updated))

	d4, err := iso.Apply(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ISO  now %d matches (+%d −%d)\n", iso.Size(), len(d4.Added), len(d4.Removed))
}
