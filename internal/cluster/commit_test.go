package cluster

// Tests of the commit order: batches from concurrent callers commit one at
// a time under the coordinator mutex (run with -race this doubles as the
// concurrency audit of phase 1's per-link session state).

import (
	"sync"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// singleShardBatches builds valid batches that each stay inside one shard,
// so they commute and may be fired concurrently in any order.
func singleShardBatches(t *testing.T, g *graph.Graph, seed int64) []graph.Batch {
	t.Helper()
	scratch := g.Clone()
	all := gen.Updates(scratch, gen.UpdateSpec{Count: 240, InsertRatio: 0.6, Locality: 0.3, Seed: seed})
	byShard := make(map[int]graph.Batch)
	for _, u := range all {
		if sf, st := g.ShardOf(u.From), g.ShardOf(u.To); sf == st {
			byShard[sf] = append(byShard[sf], u)
		}
	}
	check := g.Clone()
	var batches []graph.Batch
	for s := 0; s < g.NumShards(); s++ {
		if b := byShard[s]; len(b) > 0 && check.ValidateBatch(b) == nil {
			if err := check.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, b)
		}
	}
	if len(batches) < 2 {
		t.Fatalf("workload produced %d single-shard batches; want at least 2", len(batches))
	}
	return batches
}

// TestCommitHookOrderUnderDisjointConcurrency pins the ordering contract the
// HA hub's standby feed is built on: disjoint batches committed from
// concurrent callers run their commit callbacks (the hook the feed is fed
// from) one at a time, so a sequence numbered inside the callback is dense
// and the generations it sees form a gapless chain. The one case,
// "coalesced", names the outcome: the concurrent callers coalesce into one
// serial commit order.
func TestCommitHookOrderUnderDisjointConcurrency(t *testing.T) {
	t.Run("coalesced", func(t *testing.T) {
		g := testGraph(t, 8)
		links, _, stop := InProcess(2)
		defer stop()
		co, err := NewCoordinator(g, links)
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()

		type ev struct{ seq, preGen, postGen uint64 }
		var events []ev
		commit := func(b graph.Batch) func() error {
			return func() error {
				preGen := g.Generation()
				if err := g.ApplyBatch(b); err != nil {
					return err
				}
				events = append(events, ev{uint64(len(events) + 1), preGen, g.Generation()})
				return nil
			}
		}
		total := 0
		for round := 0; round < 4; round++ {
			batches := singleShardBatches(t, g, 900+int64(round))
			var wg sync.WaitGroup
			errs := make([]error, len(batches))
			for i, b := range batches {
				wg.Add(1)
				go func(i int, b graph.Batch) {
					defer wg.Done()
					errs[i] = co.Apply(b, commit(b))
				}(i, b)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("round %d batch %d: %v", round, i, err)
				}
			}
			total += len(batches)
		}

		if len(events) != total {
			t.Fatalf("%d commit callbacks for %d commits", len(events), total)
		}
		for i, e := range events {
			if i > 0 && e.preGen != events[i-1].postGen {
				t.Fatalf("generation chain broken at seq %d: preGen %d, want %d",
					e.seq, e.preGen, events[i-1].postGen)
			}
		}
		if err := co.VerifyAll(); err != nil {
			t.Fatalf("replicas diverged: %v", err)
		}
	})
}
