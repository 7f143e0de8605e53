// Pattern watching ("situation awareness", cf. Stotz et al. [42] in the
// paper): a standing subgraph-isomorphism query over an evolving graph.
// IncISO keeps the full match set current after every event, touching only
// the d_Q-neighborhood of each change — the localizability guarantee of
// Theorem 3 — while a naive engine would re-enumerate matches globally.
//
// The scenario: a transaction graph where analysts watch for a fan-in
// motif — two accounts both wiring into a mule account that forwards to a
// cash-out point.
//
// Run with: go run ./examples/pattern_watch
package main

import (
	"fmt"
	"log"
	"time"

	"incgraph"
)

func main() {
	// The watched motif: acct → mule ← acct, mule → cashout.
	pg := incgraph.NewGraph()
	pg.AddNode(0, "acct")
	pg.AddNode(1, "acct")
	pg.AddNode(2, "mule")
	pg.AddNode(3, "cashout")
	pg.AddEdge(0, 2)
	pg.AddEdge(1, 2)
	pg.AddEdge(2, 3)
	pattern, err := incgraph.NewPattern(pg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watching motif: %d nodes, %d edges, diameter %d\n",
		len(pattern.Nodes()), 3, pattern.Diameter())

	// The transaction graph: mostly ordinary accounts, a few mules and
	// cash-out points.
	g := incgraph.NewGraph()
	n := incgraph.NodeID(0)
	newNode := func(label string) incgraph.NodeID {
		n++
		g.AddNode(n, label)
		return n
	}
	var accts, mules, outs []incgraph.NodeID
	for i := 0; i < 300; i++ {
		accts = append(accts, newNode("acct"))
	}
	for i := 0; i < 12; i++ {
		mules = append(mules, newNode("mule"))
	}
	for i := 0; i < 4; i++ {
		outs = append(outs, newNode("cashout"))
	}
	// Background wiring between ordinary accounts.
	for i := range accts {
		g.AddEdge(accts[i], accts[(i*7+13)%len(accts)])
	}

	ix := incgraph.NewISO(g, pattern)
	fmt.Printf("transaction graph: %d nodes, %d edges; initial alerts: %d\n\n",
		g.NumNodes(), g.NumEdges(), ix.Size())

	// The event feed. Each event is one wire transfer (edge). Alerts fire
	// exactly when new motif embeddings appear.
	events := []struct {
		what string
		u    incgraph.Update
	}{
		{"acct#1 wires mule#1", incgraph.Ins(accts[0], mules[0])},
		{"acct#2 wires mule#1", incgraph.Ins(accts[1], mules[0])},
		{"mule#1 forwards to cashout#1", incgraph.Ins(mules[0], outs[0])},
		{"acct#3 wires mule#1", incgraph.Ins(accts[2], mules[0])},
		{"acct#2 recalls its wire", incgraph.Del(accts[1], mules[0])},
		{"mule#1 forwards to cashout#2", incgraph.Ins(mules[0], outs[1])},
	}
	start := time.Now()
	for _, ev := range events {
		d, err := ix.Apply(incgraph.Batch{ev.u})
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case len(d.Added) > 0:
			fmt.Printf("%-32s → ALERT: %d new embeddings (total %d)\n", ev.what, len(d.Added), ix.Size())
		case len(d.Removed) > 0:
			fmt.Printf("%-32s → %d alerts retracted (total %d)\n", ev.what, len(d.Removed), ix.Size())
		default:
			fmt.Printf("%-32s → no change\n", ev.what)
		}
	}
	fmt.Printf("\nfeed of %d events processed in %v\n", len(events), time.Since(start))

	// Bulk churn: background transfers do not disturb the watch.
	churn := incgraph.RandomUpdates(ix.Graph(), incgraph.UpdateSpec{
		Count: 500, InsertRatio: 0.5, Locality: 0.9, Seed: 99,
	})
	before := ix.Size()
	start = time.Now()
	d, err := ix.Apply(churn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("500 background events in %v: %d → %d embeddings (+%d −%d)\n",
		time.Since(start), before, ix.Size(), len(d.Added), len(d.Removed))
}
