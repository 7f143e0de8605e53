package cluster

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// testGraph builds a deterministic sharded workload graph.
func testGraph(t *testing.T, shards int) *graph.Graph {
	t.Helper()
	g := gen.Synthetic(gen.GraphSpec{Nodes: 200, Edges: 800, Labels: 5, GiantSCCFrac: 0.4, Seed: 21})
	g.SetShards(shards)
	return g
}

// commitLocal is the single-process commit half of the protocol.
func commitLocal(g *graph.Graph) func(graph.Batch) error {
	return func(b graph.Batch) error { return g.ApplyBatch(b) }
}

func TestCoordinatorApplyAndVerify(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("initial placement diverged: %v", err)
	}
	scratch := g.Clone()
	for i := 0; i < 6; i++ {
		b := gen.Updates(scratch, gen.UpdateSpec{Count: 60, InsertRatio: 0.6, Locality: 0.5, Seed: int64(100 + i)})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := co.Apply(b, commitLocal(g)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if !g.Equal(scratch) {
		t.Fatal("coordinator graph diverged from reference application")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after batches: %v", err)
	}
	if co.Applied() != 6 {
		t.Fatalf("applied = %d, want 6", co.Applied())
	}
	if co.RemoteErrors() != 0 {
		t.Fatalf("remote errors = %d, want 0", co.RemoteErrors())
	}
}

func TestCoordinatorRejectsInvalidBatch(t *testing.T) {
	g := testGraph(t, 4)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var v, w graph.NodeID
	found := false
	g.Edges(func(e graph.Edge) bool {
		v, w = e.From, e.To
		found = true
		return false
	})
	if !found {
		t.Fatal("workload graph has no edges")
	}
	bad := graph.Batch{graph.Ins(v, w)} // insert of an existing edge
	committed := false
	err = co.Apply(bad, func(graph.Batch) error { committed = true; return nil })
	if !errors.Is(err, graph.ErrBadUpdate) {
		t.Fatalf("invalid batch: got %v, want ErrBadUpdate", err)
	}
	if committed {
		t.Fatal("commit ran for an invalid batch")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas touched by a rejected batch: %v", err)
	}
}

// droppingConn fails every Write after the first n, simulating a worker
// disconnect mid-phase-1.
type droppingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	budget int
}

func (d *droppingConn) Write(p []byte) (int, error) {
	d.mu.Lock()
	d.writes++
	over := d.writes > d.budget
	d.mu.Unlock()
	if over {
		d.Conn.Close()
		return 0, fmt.Errorf("simulated disconnect")
	}
	return d.Conn.Write(p)
}

func TestWorkerDisconnectMidPhase1FailsAtomically(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	// Wrap worker 1's conn so it dies after the handshake + placements:
	// each frame is two writes (header, payload), so hello + its 4
	// placements = 10 writes; the next request's header write fails.
	dc := &droppingConn{Conn: links[1].Conn, budget: 10}
	links[1].Conn = dc
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	before := g.Clone()
	scratch := g.Clone()
	b := gen.Updates(scratch, gen.UpdateSpec{Count: 80, InsertRatio: 0.6, Locality: 0.2, Seed: 7})
	committed := false
	err = co.Apply(b, func(graph.Batch) error { committed = true; return g.ApplyBatch(b) })
	if err == nil {
		t.Fatal("apply succeeded despite worker disconnect")
	}
	if committed {
		t.Fatal("commit ran despite phase-1 failure: batch not atomic")
	}
	if !g.Equal(before) {
		t.Fatal("authoritative graph changed on an aborted batch")
	}
	if co.RemoteErrors() == 0 {
		t.Fatal("disconnect not counted")
	}

	// The redial path reattaches the same worker (state intact but marked
	// dirty): the next apply must resync and succeed, converging replicas.
	if err := co.Apply(b, commitLocal(g)); err != nil {
		t.Fatalf("apply after reattach: %v", err)
	}
	if co.Resyncs() == 0 {
		t.Fatal("no resync recorded after aborted batch")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after resync: %v", err)
	}
}

func TestWorkerRestartLosesStateAndIsReplaced(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	// Rewire link 0's redial to attach a brand-new empty worker: the
	// in-process analogue of SIGKILL + restart.
	links[0].Redial = func() (net.Conn, error) {
		fresh := NewWorker()
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			fresh.ServeConn(server)
		}()
		return client, nil
	}
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	links[0].Conn.Close() // crash

	scratch := g.Clone()
	b := gen.Updates(scratch, gen.UpdateSpec{Count: 60, InsertRatio: 0.5, Locality: 0.5, Seed: 9})
	// First apply may fail while the crash is discovered; the next must
	// recover via redial + segment re-shipping.
	if err := co.Apply(b, commitLocal(g)); err != nil {
		if cerr := co.Apply(b, commitLocal(g)); cerr != nil {
			t.Fatalf("apply after worker restart: %v (first error: %v)", cerr, err)
		}
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("restarted worker not rebuilt from segments: %v", err)
	}
}

func TestMoveShardMidStream(t *testing.T) {
	g := testGraph(t, 8)
	links, workers, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	scratch := g.Clone()
	for i := 0; i < 4; i++ {
		b := gen.Updates(scratch, gen.UpdateSpec{Count: 50, InsertRatio: 0.6, Locality: 0.5, Seed: int64(40 + i)})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := co.Apply(b, commitLocal(g)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 1 {
			// Rebalance two shards onto the other worker mid-stream.
			for s := 0; s < 2; s++ {
				to := 1 - co.WorkerOf(s)
				if err := co.MoveShard(s, to); err != nil {
					t.Fatalf("MoveShard(%d,%d): %v", s, to, err)
				}
				if co.WorkerOf(s) != to {
					t.Fatalf("shard %d still on worker %d", s, co.WorkerOf(s))
				}
			}
		}
	}
	if !g.Equal(scratch) {
		t.Fatal("graph diverged across rebalance")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged across rebalance: %v", err)
	}
	// The old owner must actually have dropped the moved shards.
	st := workers[0].statFor(t)
	for s := 0; s < 2; s++ {
		if _, held := st.Shards[s]; held && co.WorkerOf(s) != 0 {
			t.Fatalf("worker 0 still holds moved shard %d", s)
		}
	}
}

// statFor reads a worker's stat directly (test helper).
func (w *Worker) statFor(t *testing.T) WorkerStat {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkerStat{Shards: map[int]int{}, Applied: w.applied, Errors: w.errs}
	if w.g != nil {
		for s := range w.owned {
			st.Shards[s] = w.g.NumShardNodes(s)
		}
	}
	return st
}

func TestDisjointBatchesRouteConcurrently(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Split a workload into per-shard-pair batches with disjoint
	// TouchedShards and fire them concurrently; the final graph must match
	// a serial application, whatever the interleaving.
	scratch := g.Clone()
	all := gen.Updates(scratch, gen.UpdateSpec{Count: 200, InsertRatio: 0.6, Locality: 0.3, Seed: 77})
	byShard := make(map[int]graph.Batch)
	for _, u := range all {
		sf, st := g.ShardOf(u.From), g.ShardOf(u.To)
		if sf != st {
			continue // keep each batch single-shard so sets stay disjoint
		}
		byShard[sf] = append(byShard[sf], u)
	}
	ref := g.Clone()
	var batches []graph.Batch
	for s := 0; s < 8; s++ {
		if b := byShard[s]; len(b) > 0 {
			// Only keep batches that remain individually valid.
			if ref.ValidateBatch(b) == nil {
				if err := ref.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				batches = append(batches, b)
			}
		}
	}
	if len(batches) < 2 {
		t.Skip("workload produced too few single-shard batches")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for i, b := range batches {
		wg.Add(1)
		go func(i int, b graph.Batch) {
			defer wg.Done()
			errs[i] = co.Apply(b, commitLocal(g))
		}(i, b)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent batch %d: %v", i, err)
		}
	}
	if !g.Equal(ref) {
		t.Fatal("concurrent disjoint batches diverged from serial application")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged: %v", err)
	}
}

func TestWorkerCapsPreHelloFrames(t *testing.T) {
	w := NewWorker()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- w.ServeConn(server) }()
	// A stray non-protocol connection: the first 8 bytes of an HTTP
	// request parse as a ~542 MB little-endian frame length. The worker
	// must tear the connection down at the pre-hello cap instead of
	// allocating a buffer that size.
	if _, err := client.Write([]byte("GET / HT")); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("pre-hello oversized frame: got %v, want ErrFrame", err)
	}
	client.Close()
}

func TestWorkerRejectsProtocolGarbage(t *testing.T) {
	w := NewWorker()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- w.ServeConn(server) }()

	// A message whose type byte is unknown gets a remote error, not a
	// connection teardown.
	if err := writeFrame(client, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(client, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if msgType(payload[0]) != msgErr || !strings.Contains(string(payload[1:]), "unknown message type") {
		t.Fatalf("garbage type answered with %q", payload)
	}

	// Apply before hello is a remote error too.
	if err := writeFrame(client, []byte{byte(msgApply)}); err != nil {
		t.Fatal(err)
	}
	if payload, err = readFrame(client, maxFrame); err != nil {
		t.Fatal(err)
	}
	if msgType(payload[0]) != msgErr {
		t.Fatalf("apply before hello answered with %q", payload)
	}

	client.Close()
	if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) {
		// EOF-equivalent teardown is fine; anything else is suspicious but
		// net.Pipe reports io.ErrClosedPipe here.
		if !strings.Contains(err.Error(), "closed pipe") {
			t.Fatalf("ServeConn exit: %v", err)
		}
	}
}
