package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"strings"
	"sync"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// testGraph builds a deterministic sharded workload graph.
func testGraph(t *testing.T, shards int) *graph.Graph {
	t.Helper()
	g := gen.Synthetic(gen.GraphSpec{Nodes: 200, Edges: 800, Labels: 5, GiantSCCFrac: 0.4, Seed: 21})
	g.SetShards(shards)
	return g
}

// applyLocal runs b through co with no op budget, committing it to g —
// the single-process commit half of the protocol.
func applyLocal(co *Coordinator, g *graph.Graph, b graph.Batch) error {
	return co.Apply(b, func() error { return g.ApplyBatch(b) })
}

func TestCoordinatorApplyAndVerify(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links)
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
		if err := applyLocal(co, g, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if !g.Equal(scratch) {
		t.Fatal("coordinator graph diverged from reference application")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after batches: %v", err)
	}
}

func TestCoordinatorRejectsInvalidBatch(t *testing.T) {
	g := testGraph(t, 4)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links)
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
	err = co.Apply(bad, func() error { committed = true; return nil })
	if !errors.Is(err, graph.ErrBadUpdate) {
		t.Fatalf("invalid batch: got %v, want ErrBadUpdate", err)
	}
	if committed {
		t.Fatal("commit ran for an invalid batch")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas touched by a rejected batch: %v", err)
	}
	// A batch rejected before phase 1 is no failure: the coordinator goes on.
	good := gen.Updates(g.Clone(), gen.UpdateSpec{Count: 40, InsertRatio: 0.6, Locality: 0.5, Seed: 3})
	if err := applyLocal(co, g, good); err != nil {
		t.Fatalf("valid batch after a rejected one: %v", err)
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas after the valid batch: %v", err)
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

// TestWorkerDisconnectMidPhase1FailsAtomically: a worker lost in phase 1
// fails the batch atomically — the commit callback never runs and the
// authoritative graph stays where it was — and the coordinator stops: the
// next Applies return the first failure without running phase 1 or their
// commit.
func (d *droppingConn) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

func TestWorkerDisconnectMidPhase1FailsAtomically(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	// Wrap worker 1's conn so it dies after the handshake + placements:
	// each frame is one write, so hello + its 4 placements = 5 writes; the
	// next request's write fails.
	dc := &droppingConn{Conn: links[1].Conn, budget: 5}
	links[1].Conn = dc
	co, err := NewCoordinator(g, links)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	before := g.Clone()
	scratch := g.Clone()
	b := gen.Updates(scratch, gen.UpdateSpec{Count: 80, InsertRatio: 0.6, Locality: 0.2, Seed: 7})
	committed := 0
	commit := func() error { committed++; return g.ApplyBatch(b) }
	first := co.Apply(b, commit)
	if first == nil {
		t.Fatal("apply succeeded despite worker disconnect")
	}
	if !strings.Contains(first.Error(), "phase 1") {
		t.Fatalf("first failure %q does not name phase 1", first)
	}
	if committed != 0 {
		t.Fatal("commit ran despite phase-1 failure: batch not atomic")
	}
	if !g.Equal(before) {
		t.Fatal("authoritative graph changed on an aborted batch")
	}

	writes := dc.count()
	for i := 0; i < 2; i++ {
		err := co.Apply(b, commit)
		if !errors.Is(err, first) || !strings.Contains(err.Error(), first.Error()) {
			t.Fatalf("apply %d after the failure: got %v, want the first failure %q", i+1, err, first)
		}
	}
	if committed != 0 || !g.Equal(before) {
		t.Fatalf("a stopped coordinator committed: %d commit callbacks, graph moved %v", committed, !g.Equal(before))
	}
	if n := dc.count(); n != writes {
		t.Fatalf("a stopped coordinator made %d more writes to its workers", n-writes)
	}
	if err := co.VerifyAll(); !errors.Is(err, first) {
		t.Fatalf("VerifyAll on a stopped coordinator: got %v, want the first failure", err)
	}
}

// TestHelloResetsWorker: a coordinator attaching to workers that still
// hold replicas from an earlier coordinator finds them reset by its hello,
// so each worker ends up holding exactly the shards the new one placed.
func TestHelloResetsWorker(t *testing.T) {
	g := testGraph(t, 8)
	links, workers, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links)
	if err != nil {
		t.Fatal(err)
	}
	scratch := g.Clone()
	for i := 0; i < 3; i++ {
		b := gen.Updates(scratch, gen.UpdateSpec{Count: 50, InsertRatio: 0.6, Locality: 0.5, Seed: int64(40 + i)})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := applyLocal(co, g, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	co.Close()

	// Reattach over fresh sessions with the workers reversed: every
	// shard's owner flips, so every replica the workers hold is a
	// holdover.
	owners := []*Worker{workers[1], workers[0]}
	var reversed []Link
	for wi, w := range owners {
		held := w.heldShards()
		if len(held) == 0 {
			t.Fatalf("worker %d holds no replicas before the reattach; the flip proves nothing", wi)
		}
		for s := range held {
			if co.WorkerOf(s) == wi {
				t.Fatalf("worker %d already holds shard %d of its new assignment; the flip proves nothing", wi, s)
			}
		}
		client, server := BufferedPipe()
		defer client.Close()
		go w.ServeConn(server)
		reversed = append(reversed, Link{Conn: client})
	}
	co2, err := NewCoordinator(g, reversed)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	for wi, w := range owners {
		held := w.heldShards()
		for s := 0; s < g.NumShards(); s++ {
			if held[s] != (co2.WorkerOf(s) == wi) {
				t.Fatalf("worker %d holds shard %d = %v, want %v", wi, s, held[s], !held[s])
			}
		}
	}
	if err := co2.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged across the reattach: %v", err)
	}
}

// heldShards returns the shards a worker holds a replica of (test helper).
func (w *Worker) heldShards() map[int]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return maps.Clone(w.owned)
}

// TestConcurrentBatchesMatchSerial: batches fired from concurrent callers
// commit one at a time, in whatever order they took the coordinator, and
// reach exactly the serial result.
func TestConcurrentBatchesMatchSerial(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Split a workload into single-shard batches, so that they commute,
	// and fire them concurrently; the final graph must match a serial
	// application, whatever the order.
	scratch := g.Clone()
	all := gen.Updates(scratch, gen.UpdateSpec{Count: 200, InsertRatio: 0.6, Locality: 0.3, Seed: 77})
	byShard := make(map[int]graph.Batch)
	for _, u := range all {
		sf, st := g.ShardOf(u.From), g.ShardOf(u.To)
		if sf != st {
			continue // keep each batch single-shard so the batches commute
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
			errs[i] = applyLocal(co, g, b)
		}(i, b)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent batch %d: %v", i, err)
		}
	}
	if !g.Equal(ref) {
		t.Fatal("concurrent batches diverged from serial application")
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

// roundTrip sends one request and reads its reply.
func roundTrip(conn io.ReadWriter, frame []byte) (*store.Reader, error) {
	if err := send(conn, frame); err != nil {
		return nil, err
	}
	r, _, err := readReply(conn, nil)
	return r, err
}

func TestWorkerRejectsProtocolGarbage(t *testing.T) {
	w := NewWorker()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- w.ServeConn(server) }()

	// A message whose type byte is unknown gets a remote error, not a
	// connection teardown.
	if _, err := roundTrip(client, appendMsg(nil, 0xEE)); !IsRemote(err) || !strings.Contains(err.Error(), "unknown message type") {
		t.Fatalf("garbage type answered with %v", err)
	}

	// Apply before hello is a remote error too.
	if _, err := roundTrip(client, appendMsg(nil, msgApply)); !IsRemote(err) {
		t.Fatalf("apply before hello answered with %v", err)
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

// TestHelloRefusesOtherProtocolVersion: a peer one protocol version behind
// is refused at both handshakes — a worker hello and a hub tail request —
// with "protocol version … not supported", and opens no session: the
// worker still answers as un-helloed, and the hub registers no standby and
// never cuts a snapshot.
func TestHelloRefusesOtherProtocolVersion(t *testing.T) {
	old := uint32(protocolVersion - 1)
	notSupported := fmt.Sprintf("protocol version %d not supported", old)

	w := NewWorker()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- w.ServeConn(server) }()
	hello := encodeHello(8)
	binary.LittleEndian.PutUint32(hello[store.FrameHeaderSize+1:], old)
	if _, err := roundTrip(client, hello); err == nil || !strings.Contains(err.Error(), notSupported) {
		t.Fatalf("old-version hello: got %v, want %q", err, notSupported)
	}
	if _, err := roundTrip(client, appendMsg(nil, msgApply)); err == nil || !strings.Contains(err.Error(), "before hello") {
		t.Fatalf("apply after a refused hello: got %v, want a before-hello refusal", err)
	}
	client.Close()
	<-done

	snapshots := 0
	hub := NewHub(HubOptions{Term: 1, Snapshot: func() (uint64, uint64, []byte, error) {
		snapshots++
		return 0, 0, nil, nil
	}})
	hc, sc := net.Pipe()
	defer sc.Close()
	served := make(chan error, 1)
	go func() { served <- hub.ServeConn(hc) }()
	tail := encodeTailReq()
	binary.LittleEndian.PutUint32(tail[store.FrameHeaderSize+1:], old)
	if _, err := roundTrip(sc, tail); err == nil || !strings.Contains(err.Error(), notSupported) {
		t.Fatalf("old-version tail request: got %v, want %q", err, notSupported)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), notSupported) {
		t.Fatalf("hub ServeConn returned %v, want %q", err, notSupported)
	}
	if n := hub.Standbys(); n != 0 || snapshots != 0 {
		t.Fatalf("refused tail left %d standbys and cut %d snapshots, want none", n, snapshots)
	}
}
