package cluster

import (
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// scrubWorkload drives a few committed batches through the coordinator so
// every worker holds real committed state worth corrupting.
func scrubWorkload(t *testing.T, co *Coordinator, g *graph.Graph, batches int) {
	t.Helper()
	scratch := g.Clone()
	for i := 0; i < batches; i++ {
		b := gen.Updates(scratch, gen.UpdateSpec{Count: 40, InsertRatio: 0.6, Locality: 0.5, Seed: int64(500 + i)})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := applyLocal(co, g, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}

// corruptWorkerShard silently diverges one shard replica owned by worker
// widx — in-memory rot no commit has touched yet — and returns the shard
// it touched.
func corruptWorkerShard(t *testing.T, co *Coordinator, w *Worker, widx int) int {
	t.Helper()
	co.mu.Lock()
	owned := map[int]bool{}
	for s, wi := range *co.assign.Load() {
		if wi == widx {
			owned[s] = true
		}
	}
	// Build the divergent state on a full-graph clone (the worker's graph
	// is shard-partial, so mutating it directly is not a legal operation
	// even for a vandal), then swap the poisoned shard export in.
	sc := co.g.Clone()
	co.mu.Unlock()
	var victim graph.Edge
	shard := -1
	sc.Edges(func(e graph.Edge) bool {
		if s := sc.ShardOf(e.From); owned[s] {
			victim, shard = e, s
			return false
		}
		return true
	})
	if shard < 0 {
		t.Fatal("no edge found in any shard owned by the worker")
	}
	if err := sc.ApplyBatch(graph.Batch{graph.Del(victim.From, victim.To)}); err != nil {
		t.Fatal(err)
	}
	st := sc.ExportShard(shard)

	w.mu.Lock()
	defer w.mu.Unlock()
	w.g.ResetShard(shard)
	if err := w.g.LoadShard(shard, st); err != nil {
		t.Fatalf("corrupting replica: %v", err)
	}
	return shard
}

// TestScrubHealsInMemoryDivergence: a worker whose replica silently
// diverged (bit rot, a lost update — anything no commit has touched yet)
// is caught by the parcel-byte comparison and re-placed
// from the coordinator-authoritative segment, unattended.
func TestScrubHealsInMemoryDivergence(t *testing.T) {
	g := testGraph(t, 8)
	links, workers, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	scrubWorkload(t, co, g, 4)

	corruptWorkerShard(t, co, workers[0], 0)
	if err := co.VerifyAll(); err == nil {
		t.Fatal("corruption was a no-op; the drill proves nothing")
	}

	rep, err := co.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Mismatches != 1 || rep.Heals != 1 {
		t.Fatalf("scrub report = %+v, want exactly 1 mismatch healed", rep)
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replica still divergent after heal: %v", err)
	}

	// A second pass over the healed cluster is clean, and the lifetime
	// counters carry the history.
	rep2, err := co.Scrub()
	if err != nil {
		t.Fatalf("second scrub: %v", err)
	}
	if rep2.Mismatches != 0 || rep2.Heals != 0 {
		t.Fatalf("second scrub report = %+v, want a clean pass", rep2)
	}
	stats := co.ScrubCounters()
	if stats.Passes != 2 || stats.Mismatches != 1 || stats.Heals != 1 {
		t.Fatalf("lifetime counters = %+v, want 2 passes, 1 mismatch, 1 heal", stats)
	}

	// The healed cluster still commits.
	scrubWorkload(t, co, g, 1)
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("post-heal commit diverged: %v", err)
	}
}

// TestStartScrubberHealsUnattended runs the background loop against a
// silently corrupted replica and waits for it to notice and heal with no
// verb, no commit, and no operator in the loop.
func TestStartScrubberHealsUnattended(t *testing.T) {
	g := testGraph(t, 8)
	links, workers, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	scrubWorkload(t, co, g, 3)

	corruptWorkerShard(t, co, workers[1], 1)
	co.StartScrubber(time.Millisecond)

	deadline := time.Now().Add(10 * time.Second)
	for co.ScrubCounters().Heals == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never healed the corrupted replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replica still divergent after background heal: %v", err)
	}
}
