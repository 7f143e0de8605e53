// Knowledge-graph regular path queries: the motivating DBpedia-style
// workload of the paper. A synthetic knowledge graph is queried with RPQs,
// then a stream of edits (new facts, retracted facts) is answered
// incrementally by IncRPQ — including the two-chain gadget from the
// unboundedness proof of Theorem 1, showing a single edit exploding into
// many answer changes and still being handled correctly.
//
// Run with: go run ./examples/knowledge_graph
package main

import (
	"fmt"
	"log"

	"incgraph"
)

func main() {
	// A miniature curated knowledge graph. Labels play the role of entity
	// types; an RPQ over node labels describes a typed chain of hops.
	g := incgraph.NewGraph()
	type node struct {
		id    incgraph.NodeID
		label string
	}
	nodes := []node{
		{1, "person"}, {2, "person"}, {3, "person"},
		{10, "city"}, {11, "city"},
		{20, "country"}, {21, "country"},
		{30, "company"},
	}
	for _, n := range nodes {
		g.AddNode(n.id, n.label)
	}
	edges := [][2]incgraph.NodeID{
		{1, 10},  // person1 bornIn city10
		{2, 10},  // person2 bornIn city10
		{3, 11},  // person3 bornIn city11
		{10, 20}, // city10 locatedIn country20
		{11, 21}, // city11 locatedIn country21
		{1, 30},  // person1 worksFor company30
		{30, 11}, // company30 headquarteredIn city11
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}

	// Query 1: persons transitively located in a country via cities.
	q1, err := incgraph.NewRPQ(g.Clone(), "person.city.country")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("person.city.country        → %v\n", q1.Matches())

	// Query 2: persons connected to a country through any chain of cities
	// and companies.
	q2, err := incgraph.NewRPQ(g.Clone(), "person.(city+company)*.country")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("person.(city+company)*.country → %d matches\n", q2.Size())

	// A stream of edits, answered incrementally.
	stream := []incgraph.Batch{
		{incgraph.Ins(2, 30)},                  // person2 joins company30
		{incgraph.Del(10, 20)},                 // city10's country link retracted
		{incgraph.InsNew(12, 20, "city", "")},  // new city12 in country20
		{incgraph.Ins(10, 20)},                 // the retraction is reverted
		{incgraph.InsNew(4, 12, "person", "")}, // person4 born in city12
	}
	for i, batch := range stream {
		d, err := q2.Apply(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("edit %d %-24v → +%d −%d (total %d)\n",
			i+1, batch, len(d.Added), len(d.Removed), q2.Size())
	}

	// The Theorem 1 phenomenon: two single-edge edits, the first changing
	// nothing, the second changing Θ(n) answers at once. Boundedness in
	// |ΔG|+|ΔO| is impossible, yet the relatively bounded IncRPQ handles it.
	fmt.Println("\nunboundedness gadget (Fig. 9 flavor):")
	n := 50
	gad := incgraph.NewGraph()
	for i := 0; i < n; i++ {
		gad.AddNode(incgraph.NodeID(i), "a")
		if i > 0 {
			gad.AddEdge(incgraph.NodeID(i-1), incgraph.NodeID(i))
		}
	}
	for i := 0; i < n; i++ {
		gad.AddNode(incgraph.NodeID(100+i), "b")
		if i > 0 {
			gad.AddEdge(incgraph.NodeID(100+i-1), incgraph.NodeID(100+i))
		}
	}
	gad.AddNode(999, "c")
	qg, err := incgraph.NewRPQ(gad, "a.a*.b.b*.c")
	if err != nil {
		log.Fatal(err)
	}
	d1, _ := qg.Apply(incgraph.Batch{incgraph.Ins(incgraph.NodeID(n-1), 100)})
	fmt.Printf("  bridge 1: |ΔG|=1 → |ΔO|=%d\n", len(d1.Added))
	d2, _ := qg.Apply(incgraph.Batch{incgraph.Ins(incgraph.NodeID(100+n-1), 999)})
	fmt.Printf("  bridge 2: |ΔG|=1 → |ΔO|=%d (= n: one edit, Θ(n) new answers)\n", len(d2.Added))
}
