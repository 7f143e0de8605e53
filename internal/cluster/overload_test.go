package cluster

// Overload-protection tests: the per-op deadline of ApplyCommit (shard
// admission shedding with ErrOverloaded, safe retry) and the bounded
// stats poll (a stalled worker must not stretch Stats by its full RPC
// deadline).

import (
	"errors"
	"net"
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func TestApplyDeadlineShedsWhenShardsBusy(t *testing.T) {
	g := testGraph(t, 4)
	links, _, stop := InProcess(1)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	scratch := g.Clone()
	b1 := gen.Updates(scratch, gen.UpdateSpec{Count: 40, InsertRatio: 0.6, Locality: 0.5, Seed: 301})
	if err := scratch.ApplyBatch(b1); err != nil {
		t.Fatal(err)
	}
	// Hold b1's shards by blocking its commit callback; a touched-shard
	// overlap then forces b2 to queue.
	hold := make(chan struct{})
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- co.Apply(b1, func(b graph.Batch) error {
			close(entered)
			<-hold
			return g.ApplyBatch(b)
		})
	}()
	<-entered

	// b2 touches at least one of b1's shards (same touched set by
	// construction: re-generate from the same scratch state pre-apply is
	// not possible, so use b1 itself — identical batch, identical shards).
	if err := co.ApplyCommit(b1, time.Now().Add(50*time.Millisecond), Commit{Apply: func(graph.Batch) error {
		t.Error("commit ran for a shed batch")
		return nil
	}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("busy-shard apply: got %v, want ErrOverloaded", err)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("held batch: %v", err)
	}
	// The shed left nothing dirty and nothing half-applied: replicas still
	// match the authoritative graph, and a clean retry of a fresh batch
	// works.
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after a shed: %v", err)
	}
	b2 := gen.Updates(scratch, gen.UpdateSpec{Count: 40, InsertRatio: 0.6, Locality: 0.5, Seed: 302})
	if err := scratch.ApplyBatch(b2); err != nil {
		t.Fatal(err)
	}
	if err := co.ApplyCommit(b2, time.Now().Add(rpcTimeout), Commit{Apply: commitLocal(g)}); err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	if !g.Equal(scratch) {
		t.Fatal("graph diverged from reference after shed + retry")
	}
}

func TestApplyDeadlineZeroIsUnbounded(t *testing.T) {
	g := testGraph(t, 4)
	links, _, stop := InProcess(1)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	scratch := g.Clone()
	b := gen.Updates(scratch, gen.UpdateSpec{Count: 30, InsertRatio: 0.7, Locality: 0.5, Seed: 303})
	if err := scratch.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := co.ApplyCommit(b, time.Time{}, Commit{Apply: commitLocal(g)}); err != nil {
		t.Fatalf("zero-deadline apply: %v", err)
	}
	if !g.Equal(scratch) {
		t.Fatal("graph diverged")
	}
}

func TestStatsWithinBoundedByOneTimeoutNotPerWorker(t *testing.T) {
	g := testGraph(t, 4)
	live, _, stop := InProcess(1)
	defer stop()
	// Attach a healthy worker, then swap its session for a pipe whose far
	// end swallows writes and never answers — a stalled (SIGSTOPped, black-
	// holed) worker, the case where an unbounded poll hangs for the full
	// RPC deadline. StatsWithin(200ms) must return within ~the timeout and
	// mark the worker down.
	co, err := NewCoordinator(g, live, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	go func() { // swallow writes, never answer: a stalled (not dead) worker
		buf := make([]byte, 4096)
		for {
			if _, err := p2.Read(buf); err != nil {
				return
			}
		}
	}()
	l := co.workers[0]
	l.connMu.Lock()
	old := l.conn
	l.conn = p1
	l.connMu.Unlock()
	defer func() {
		l.connMu.Lock()
		l.conn = old
		l.down = false
		l.connMu.Unlock()
	}()

	start := time.Now()
	st := co.StatsWithin(200 * time.Millisecond)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("StatsWithin(200ms) took %v against a stalled worker", elapsed)
	}
	if len(st) != 1 || !st[0].Down {
		t.Fatalf("stalled worker not reported down: %+v", st)
	}
}
