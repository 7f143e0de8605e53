package incgraph_test

// Differential test of the HA failover path — the PR's acceptance pin. The
// same update stream drives (a) a plain single-process run at shards=8 and
// (b) an HA deployment: a primary coordinator over two shard workers with
// quorum log shipping and a hub feeding a live standby. Mid-stream the
// primary is killed without ceremony (feed severed, coordinator abandoned
// un-Closed, exactly what SIGKILL leaves behind); the standby notices,
// promotes at term+1 over the same workers — fencing the corpse — and
// applies the remaining batches. At the end, all four query classes'
// WriteAnswer bytes, the canonical snapshot encoding, and the worker
// replicas must be identical to the uninterrupted run: failing over costs
// nothing in answer fidelity.

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"incgraph"
)

func TestHAFailoverMatchesUninterruptedRun(t *testing.T) {
	g, batches := diffWorkload(t, 6060)
	g.SetShards(8)

	// The queries are fixed against the initial graph; every deployment —
	// reference, primary, promoted standby — answers the same four, however
	// much graph state it was built on.
	kwsQ, err := incgraph.RandomKWSQuery(g, 3, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	rpqQ, err := incgraph.RandomRPQQuery(g, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	isoQ, err := incgraph.RandomISOPattern(g, 3, 3, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	buildEngines := func(state *incgraph.Graph) []incgraph.Maintained {
		kws, err := incgraph.NewKWS(state.Clone(), kwsQ)
		if err != nil {
			t.Fatal(err)
		}
		rpq, err := incgraph.NewRPQFromAst(state.Clone(), rpqQ)
		if err != nil {
			t.Fatal(err)
		}
		return []incgraph.Maintained{
			incgraph.MaintainKWS(kws),
			incgraph.MaintainRPQ(rpq),
			incgraph.MaintainSCC(incgraph.NewSCC(state.Clone())),
			incgraph.MaintainISO(incgraph.NewISO(state.Clone(), isoQ)),
		}
	}

	// Uninterrupted single-process reference.
	sg := g.Clone()
	singleEngines := buildEngines(sg)
	for _, b := range batches {
		if err := sg.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		for _, m := range singleEngines {
			if _, err := m.Apply(b); err != nil {
				t.Fatalf("%s: %v", m.Class(), err)
			}
		}
	}

	// HA side: primary coordinator + two workers, hub + standby attached
	// before the stream starts (so the handshake snapshot is the initial
	// state and every batch arrives through the feed).
	cg := g.Clone()
	links, _, stopWorkers := incgraph.InProcessLinks(2)
	defer stopWorkers()
	hub := incgraph.NewClusterHub(incgraph.ClusterHubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
			snap, err := incgraph.EncodeSnapshot(cg)
			return 0, cg.Generation(), snap, err
		},
	})
	var standbyGraph *incgraph.Graph
	standby := incgraph.NewClusterStandby(incgraph.ClusterStandbyOptions{
		TTL: time.Second,
		Load: func(term, seq, gen uint64, snap []byte) error {
			loaded, err := incgraph.DecodeSnapshot(snap)
			if err != nil {
				return err
			}
			standbyGraph = loaded
			return nil
		},
		Apply: func(seq, postGen uint64, b incgraph.Batch) error {
			if err := standbyGraph.ApplyBatch(b); err != nil {
				return err
			}
			if standbyGraph.Generation() != postGen {
				return fmt.Errorf("standby at gen %d, primary said %d", standbyGraph.Generation(), postGen)
			}
			return nil
		},
	})
	hubConn, standbyConn := net.Pipe()
	tailDone := make(chan error, 1)
	go hub.ServeConn(hubConn)
	go func() { tailDone <- standby.Run(standbyConn) }()
	deadline := time.Now().Add(5 * time.Second)
	for hub.Standbys() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never attached")
		}
		time.Sleep(time.Millisecond)
	}

	primary, err := incgraph.NewCluster(cg, links, incgraph.WithClusterTerm(1),
		incgraph.WithReplication(incgraph.ReplQuorum), incgraph.WithOnCommit(hub.Feed))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primaryEngines := buildEngines(cg)
	commitTo := func(g *incgraph.Graph, engines []incgraph.Maintained) func(incgraph.Batch) error {
		return func(b incgraph.Batch) error {
			if err := g.ApplyBatch(b); err != nil {
				return err
			}
			for _, m := range engines {
				if _, err := m.Apply(b); err != nil {
					return fmt.Errorf("%s: %w", m.Class(), err)
				}
			}
			return nil
		}
	}

	cut := len(batches) / 2
	for i := 0; i < cut; i++ {
		if err := primary.Apply(batches[i], commitTo(cg, primaryEngines)); err != nil {
			t.Fatalf("primary batch %d: %v", i, err)
		}
	}
	// Feeds are enqueued in commit order but acked asynchronously; wait
	// for the standby to drain the stream before killing the primary.
	deadline = time.Now().Add(5 * time.Second)
	for standby.LastSeq() != uint64(cut) {
		if time.Now().After(deadline) {
			t.Fatalf("standby at seq %d after %d commits", standby.LastSeq(), cut)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the primary mid-stream: sever the feed and abandon the
	// coordinator without Close — its worker sessions stay open.
	hub.Close()
	hubConn.Close()
	if err := <-tailDone; err == nil {
		t.Fatal("standby tail survived the primary's death")
	}

	// Promote: the standby's graph becomes authoritative at term+1 over
	// fresh sessions to the same workers; engines are rebuilt on it the way
	// a recovering process rebuilds on a snapshot.
	promotedLinks := make([]incgraph.ClusterLink, len(links))
	for i := range links {
		conn, err := links[i].Redial()
		if err != nil {
			t.Fatal(err)
		}
		promotedLinks[i] = incgraph.ClusterLink{Conn: conn, Name: links[i].Name, Redial: links[i].Redial}
	}
	successor, err := incgraph.NewCluster(standbyGraph, promotedLinks,
		incgraph.WithClusterTerm(standby.Term()+1), incgraph.WithReplication(incgraph.ReplQuorum))
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer successor.Close()
	successorEngines := buildEngines(standbyGraph)
	for i := cut; i < len(batches); i++ {
		if err := successor.Apply(batches[i], commitTo(standbyGraph, successorEngines)); err != nil {
			t.Fatalf("successor batch %d: %v", i, err)
		}
	}

	// The deposed primary's late commit must bounce off the fence without
	// mutating its graph.
	late := incgraph.RandomUpdates(cg.Clone(), incgraph.UpdateSpec{Count: 20, InsertRatio: 0.5, Locality: 0.8, Seed: 31})
	if err := primary.Apply(late, func(b incgraph.Batch) error { return cg.ApplyBatch(b) }); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("deposed primary's late commit: got %v, want fenced", err)
	}

	// Answer fidelity: all four query classes byte-identical to the
	// uninterrupted run.
	for i := range successorEngines {
		if got, want := answerOf(t, successorEngines[i]), answerOf(t, singleEngines[i]); got != want {
			t.Fatalf("%s answers differ after failover:\nfailover:\n%s\nuninterrupted:\n%s",
				successorEngines[i].Class(), got, want)
		}
	}
	// State fidelity: same graph, byte-identical canonical snapshot, and
	// every worker replica matching the promoted authoritative segments.
	if !standbyGraph.Equal(sg) {
		t.Fatal("failover graph diverged from the uninterrupted run")
	}
	got, err := incgraph.EncodeSnapshot(standbyGraph)
	if err != nil {
		t.Fatal(err)
	}
	want, err := incgraph.EncodeSnapshot(sg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover snapshot differs from the uninterrupted run's")
	}
	if err := successor.VerifyAll(); err != nil {
		t.Fatalf("worker replicas diverged after failover: %v", err)
	}
}
