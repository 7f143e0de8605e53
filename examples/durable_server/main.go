// Durable standing queries: the full durability cycle in one program.
// A synthetic social graph and two standing queries (SCC communities,
// keyword search) are made durable — every update burst is write-ahead
// logged before it is applied, a checkpoint folds the log into a binary
// per-shard snapshot, and a simulated crash (dropping all in-memory state)
// is recovered by snapshot-load + WAL replay onto the graph, and the
// engines are built once on the recovered graph. The final answers are compared byte for byte against an
// uninterrupted in-memory run: they must be identical, which is the
// durability subsystem's core guarantee.
//
// The long-lived network-facing version of this loop is cmd/incgraphd.
//
// Run with: go run ./examples/durable_server
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"incgraph"
)

func main() {
	dir, err := os.MkdirTemp("", "incgraph-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 3000, Edges: 15000, Labels: 30, GiantSCCFrac: 0.7, Seed: 11,
	})
	q := incgraph.KWSQuery{Keywords: []string{"l1", "l2"}, Bound: 2}

	// buildEngines builds the standing queries, each on the graph on() hands
	// it — the same constructor runs at first boot and at recovery. Under a
	// Durable that is the store's own graph for every engine: a commit
	// applies the burst to it once and each engine repairs in place.
	buildEngines := func(on func() *incgraph.Graph) []incgraph.Maintained {
		kws, err := incgraph.NewKWS(on(), q)
		if err != nil {
			log.Fatal(err)
		}
		return []incgraph.Maintained{
			incgraph.MaintainSCC(incgraph.NewSCC(on())),
			incgraph.MaintainKWS(kws),
		}
	}

	// The uninterrupted reference run, for the parity check at the end:
	// standalone engines, each owning a clone that its Apply advances.
	reference := buildEngines(g.Clone)

	// Durable run: create the store, attach engines, stream update bursts.
	d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Attach(buildEngines(d.Graph)...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store %s: %d members, %d follow edges\n", dir, g.NumNodes(), g.NumEdges())

	scratch := g.Clone()
	for burst := 0; burst < 8; burst++ {
		events := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 150, InsertRatio: 0.5, Locality: 1.0, Seed: int64(300 + burst),
		})
		if err := scratch.ApplyBatch(events); err != nil {
			log.Fatal(err)
		}
		sums, err := d.Commit(events, incgraph.ApplyOptions{}) // WAL append, one graph apply, a repair per engine
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range reference {
			if _, err := m.Apply(events); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  burst %d: scc %s kws %s (WAL %d bytes)\n", burst+1, sums[0], sums[1], d.WALBytes())
		if burst == 3 {
			if err := d.Checkpoint(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  checkpoint: epoch %d, WAL reset to %d bytes\n", d.Epoch(), d.WALBytes())
		}
	}

	// Crash. Nothing survives but the store directory.
	d.Close()
	fmt.Println("crash (all in-memory state dropped)")

	// Recovery: snapshot load and WAL replay onto the graph, then one
	// engine build on the recovered graph.
	r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Attach(buildEngines(r.Graph)...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d nodes, %d edges, WAL seq %d\n",
		r.Graph().NumNodes(), r.Graph().NumEdges(), r.WALSeq())

	// Byte-identical answers or bust.
	for i, m := range r.Engines() {
		var want, got bytes.Buffer
		if err := reference[i].WriteAnswer(&want); err != nil {
			log.Fatal(err)
		}
		if err := m.WriteAnswer(&got); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			log.Fatalf("%s: recovered answers differ from the uninterrupted run", m.Class())
		}
		fmt.Printf("  %s: %d answers, byte-identical to the uninterrupted run\n", m.Class(), m.Size())
	}
}
