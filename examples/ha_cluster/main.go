// High availability end to end: a primary, a hub feeding a live standby,
// and a failover. The primary commits half of an update stream (each
// batch is fed to the standby), then dies without ceremony; the standby
// promotes at term+1 and commits the rest. The final graph and the
// canonical snapshot bytes must equal an uninterrupted single-process
// run: failing over costs nothing in fidelity.
//
// cmd/incgraphd runs this topology as long-lived network-facing processes
// (-term/-hub on the primary, "incgraphd standby" + "promote"). Nothing
// fences a deposed primary: the operator must know the old primary is
// dead before promoting.
//
// Run with: go run ./examples/ha_cluster
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"incgraph"
)

func main() {
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 2000, Edges: 10000, Labels: 20, GiantSCCFrac: 0.6, Seed: 7,
	})

	// The update stream, fixed up front so the reference run and the HA
	// run apply literally the same batches.
	scratch := g.Clone()
	var batches []incgraph.Batch
	for i := 0; i < 8; i++ {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 200, InsertRatio: 0.5, Locality: 0.9, Seed: int64(100 + i),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			log.Fatal(err)
		}
		batches = append(batches, b)
	}

	// Uninterrupted single-process reference.
	ref := g.Clone()
	for _, b := range batches {
		if err := ref.ApplyBatch(b); err != nil {
			log.Fatal(err)
		}
	}

	// Primary: term 1, and a hub that streams every committed batch to
	// attached standbys. A commit applies the batch and feeds it under
	// commitMu, and the snapshot callback takes the same lock, so no
	// committed batch can fall between a standby's snapshot and its feed.
	primaryGraph := g.Clone()
	var commitMu sync.Mutex
	hub := incgraph.NewClusterHub(incgraph.ClusterHubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
			commitMu.Lock()
			defer commitMu.Unlock()
			snap, err := incgraph.EncodeSnapshot(primaryGraph)
			return 0, primaryGraph.Generation(), snap, err
		},
	})

	// Standby: loads the handshake snapshot, applies every fed record,
	// and watches the heartbeat lease.
	var standbyGraph *incgraph.Graph
	standby := incgraph.NewClusterStandby(incgraph.ClusterStandbyOptions{
		TTL: 500 * time.Millisecond,
		Load: func(term, seq, gen uint64, snap []byte) error {
			var err error
			standbyGraph, err = incgraph.DecodeSnapshot(snap)
			return err
		},
		Apply: func(seq, postGen uint64, b incgraph.Batch) error {
			return standbyGraph.ApplyBatch(b)
		},
	})
	hubConn, standbyConn := net.Pipe()
	go hub.ServeConn(hubConn)
	tailDone := make(chan error, 1)
	go func() { tailDone <- standby.Run(standbyConn) }()
	for hub.Standbys() == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("primary up: term 1, 1 standby")

	// The first half of the stream goes through the primary.
	var feedSeq uint64
	for _, b := range batches[:4] {
		commitMu.Lock()
		preGen := primaryGraph.Generation()
		err := primaryGraph.ApplyBatch(b)
		if err == nil {
			feedSeq++
			hub.Feed(feedSeq, preGen, primaryGraph.Generation(), b)
		}
		commitMu.Unlock()
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("primary committed 4 batches (repl seq %d)\n", feedSeq)
	// Feeds are enqueued in commit order but acked asynchronously; wait
	// for the standby to catch up before killing the primary.
	for deadline := time.Now().Add(5 * time.Second); standby.LastSeq() != feedSeq; {
		if time.Now().After(deadline) {
			log.Fatalf("standby at seq %d, primary at %d", standby.LastSeq(), feedSeq)
		}
		time.Sleep(time.Millisecond)
	}

	// The primary dies: feed severed — exactly what SIGKILL leaves behind.
	// The standby notices.
	hub.Close()
	hubConn.Close()
	if err := <-tailDone; err != nil {
		fmt.Printf("standby tail ended: %v\n", err)
	}

	// Promote: the standby's graph is the primary's now, at term 2, and
	// it finishes the stream.
	fmt.Printf("standby promoted: term %d\n", standby.Term()+1)
	for _, b := range batches[4:] {
		if err := standbyGraph.ApplyBatch(b); err != nil {
			log.Fatal(err)
		}
	}

	// Fidelity: graph and canonical snapshot bytes match the
	// uninterrupted run.
	if !standbyGraph.Equal(ref) {
		log.Fatal("failover graph diverged from the uninterrupted run")
	}
	got, err := incgraph.EncodeSnapshot(standbyGraph)
	if err != nil {
		log.Fatal(err)
	}
	want, err := incgraph.EncodeSnapshot(ref)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		log.Fatal("failover snapshot differs from the uninterrupted run's")
	}
	fmt.Printf("failover complete: %d nodes, %d edges, gen %d — byte-identical to the uninterrupted run\n",
		standbyGraph.NumNodes(), standbyGraph.NumEdges(), standbyGraph.Generation())
}
