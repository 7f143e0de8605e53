// High availability end to end: a primary coordinator over two in-process
// shard workers, a hub feeding a live standby, a deterministic fault
// drill, and a failover. The primary commits half of an update stream
// (each batch is fed to the standby), then dies without ceremony; the
// standby promotes at term+1 over the same workers — re-placing every
// shard from its own graph, fencing the corpse, whose late commit
// bounces — and commits the rest. The final graph and the canonical
// snapshot bytes must equal an uninterrupted single-process run: failing
// over costs nothing in fidelity.
//
// cmd/incgraphd runs the replication half of this topology as long-lived
// network-facing processes (-term/-hub on the primary, "incgraphd
// standby" + "promote"), but without shard workers: it is one process, so
// it has nothing that fences a deposed primary.
//
// Run with: go run ./examples/ha_cluster
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"incgraph"
)

func main() {
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 2000, Edges: 10000, Labels: 20, GiantSCCFrac: 0.6, Seed: 7,
	})
	g.SetShards(8)

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

	// Two shard workers, and a fault script on the coordinator's links: a
	// seeded, scriptable frame shim. This one drops the first phase-1
	// apply on the wire — the commit fails atomically, the coordinator
	// marks the planned shards dirty, and the retry heals them by parcel
	// resync. The event log is deterministic: same seed + same traffic =
	// same faults, which is how the CI chaos drills pin reproducibility.
	links, _, stopWorkers := incgraph.InProcessLinks(2)
	defer stopWorkers()
	faults := incgraph.NewFaultScript(42, incgraph.FaultRule{
		Dir: incgraph.FaultOut, Frame: -1, Msg: incgraph.FaultMsgApply,
		Action: incgraph.FaultDrop, Count: 1,
	})
	for i := range links {
		links[i] = faults.WrapLink(links[i])
	}

	// Primary: fencing term 1, and a hub that streams every committed batch
	// to attached standbys. The snapshot callback and the commit path
	// serialize over the same state, so no committed batch can fall between
	// a standby's snapshot and its feed stream.
	primaryGraph := g.Clone()
	hub := incgraph.NewClusterHub(incgraph.ClusterHubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
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

	primary, err := incgraph.NewCluster(primaryGraph, links,
		incgraph.WithClusterTerm(1),
		incgraph.WithCallTimeout(300*time.Millisecond), // fail dropped frames fast
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary up: term 1, %d shards on 2 workers, 1 standby\n",
		primaryGraph.NumShards())

	// The commit callback runs once phase 1 succeeded, under the
	// coordinator mutex — in commit order — so it is where the primary
	// feeds its standby. The first half of the stream goes through the
	// primary; the faulted batch fails once (the drill) and succeeds on
	// retry after resync.
	var feedSeq uint64
	commitTo := func(c *incgraph.Cluster, dst *incgraph.Graph, hub *incgraph.ClusterHub, b incgraph.Batch) error {
		return c.Apply(b, func() error {
			preGen := dst.Generation()
			if err := dst.ApplyBatch(b); err != nil {
				return err
			}
			if hub != nil {
				feedSeq++
				hub.Feed(feedSeq, preGen, dst.Generation(), b)
			}
			return nil
		})
	}
	for i := 0; i < 4; i++ {
		err := commitTo(primary, primaryGraph, hub, batches[i])
		if err != nil {
			fmt.Printf("  batch %d: %v (injected fault; retrying)\n", i, err)
			err = commitTo(primary, primaryGraph, hub, batches[i])
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("primary committed 4 batches (repl seq %d, %d resyncs); faults fired: %s\n",
		feedSeq, primary.Resyncs(), strings.Join(faults.Events(), "; "))
	// Feeds are enqueued in commit order but acked asynchronously; wait
	// for the standby to catch up before killing the primary.
	for deadline := time.Now().Add(5 * time.Second); standby.LastSeq() != feedSeq; {
		if time.Now().After(deadline) {
			log.Fatalf("standby at seq %d, primary at %d", standby.LastSeq(), feedSeq)
		}
		time.Sleep(time.Millisecond)
	}

	// The primary dies: feed severed, coordinator abandoned un-Closed —
	// exactly what SIGKILL leaves behind. The standby notices.
	hub.Close()
	hubConn.Close()
	if err := <-tailDone; err != nil {
		fmt.Printf("standby tail ended: %v\n", err)
	}

	// Promote: fresh sessions to the same workers at term 2. Every shard
	// is re-placed from the standby's graph; the workers fence term 1.
	promoted := make([]incgraph.ClusterLink, len(links))
	for i := range links {
		conn, err := links[i].Redial()
		if err != nil {
			log.Fatal(err)
		}
		promoted[i] = incgraph.ClusterLink{Conn: conn, Name: links[i].Name, Redial: links[i].Redial}
	}
	successor, err := incgraph.NewCluster(standbyGraph, promoted,
		incgraph.WithClusterTerm(standby.Term()+1))
	if err != nil {
		log.Fatal(err)
	}
	defer successor.Close()
	fmt.Printf("standby promoted: term %d\n", standby.Term()+1)

	// The deposed primary's late commit bounces off the fence.
	late := incgraph.RandomUpdates(primaryGraph.Clone(), incgraph.UpdateSpec{
		Count: 10, InsertRatio: 1.0, Seed: 99,
	})
	if err := commitTo(primary, primaryGraph, hub, late); err != nil {
		fmt.Printf("deposed primary's late commit: %v\n", err)
	} else {
		log.Fatal("deposed primary was allowed to commit")
	}

	// The successor finishes the stream.
	for i := 4; i < len(batches); i++ {
		if err := commitTo(successor, standbyGraph, nil, batches[i]); err != nil {
			log.Fatal(err)
		}
	}

	// Fidelity: graph, canonical snapshot bytes, and worker replicas all
	// match the uninterrupted run.
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
	if err := successor.VerifyAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failover complete: %d nodes, %d edges, gen %d — byte-identical to the uninterrupted run\n",
		standbyGraph.NumNodes(), standbyGraph.NumEdges(), standbyGraph.Generation())
}
