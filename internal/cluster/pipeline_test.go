package cluster

// Tests of the pipelined commit: the ordering contract of the
// OnCommit/replication hooks under concurrent shard-disjoint commits (run
// with -race this doubles as the concurrency audit of the coalescing queue),
// and what an abort after the log append reports.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// disjointBatches builds valid batches with pairwise-disjoint
// TouchedShards (every update stays inside one shard) so they may be
// fired concurrently in any order.
func disjointBatches(t *testing.T, g *graph.Graph, seed int64) []graph.Batch {
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
		t.Fatalf("workload produced %d disjoint batches; want at least 2", len(batches))
	}
	return batches
}

// TestCommitHookOrderUnderDisjointConcurrency pins the ordering contract
// of the serialized commit section: shard-disjoint batches committed
// concurrently (phase 1 overlapping, shares coalesced per link) must still drive
// the OnCommit hook with densely increasing sequence numbers and a
// gapless generation chain — the invariant the HA hub's standby feed and
// the per-shard replica logs are built on.
func TestCommitHookOrderUnderDisjointConcurrency(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts CoordinatorOptions
	}{
		{"coalesced", CoordinatorOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 8)
			links, _, stop := InProcess(2)
			defer stop()
			type ev struct{ seq, preGen, postGen uint64 }
			var mu sync.Mutex
			var events []ev
			opts := tc.opts
			opts.Term = 1
			opts.Repl = ReplAsync
			opts.OnCommit = func(seq, preGen, postGen uint64, b graph.Batch) {
				mu.Lock()
				events = append(events, ev{seq, preGen, postGen})
				mu.Unlock()
			}
			co, err := NewCoordinator(g, links, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()

			total := 0
			for round := 0; round < 4; round++ {
				batches := disjointBatches(t, g, 900+int64(round))
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
						t.Fatalf("round %d batch %d: %v", round, i, err)
					}
				}
				total += len(batches)
			}

			mu.Lock()
			got := append([]ev(nil), events...)
			mu.Unlock()
			if len(got) != total {
				t.Fatalf("OnCommit fired %d times for %d commits", len(got), total)
			}
			for i, e := range got {
				if e.seq != uint64(i+1) {
					t.Fatalf("feed order broken: event %d carries seq %d", i, e.seq)
				}
				if i > 0 && e.preGen != got[i-1].postGen {
					t.Fatalf("generation chain broken at seq %d: preGen %d, want %d",
						e.seq, e.preGen, got[i-1].postGen)
				}
			}

			// Replication rides the same order: every record ships without
			// tripping the per-shard sequence chain (a gap or inversion
			// would count as degraded and force a resync).
			deadline := time.Now().Add(10 * time.Second)
			for co.ReplShipped() < uint64(total) {
				if time.Now().After(deadline) {
					t.Fatalf("replication shipped %d of %d records", co.ReplShipped(), total)
				}
				time.Sleep(time.Millisecond)
			}
			if n := co.ReplDegraded(); n != 0 {
				t.Fatalf("replication order broken: %d records arrived gapped", n)
			}
			if err := co.VerifyAll(); err != nil {
				t.Fatalf("replicas diverged: %v", err)
			}
		})
	}
}

// TestAbortReportsFailedUnlog pins what a caller learns when a batch aborts
// after its record was logged and the record cannot be taken back: at both
// abort sites (phase 1 failed; the commit callback failed after phase 1) the
// Unlog error is part of the returned error next to the abort's cause, so the
// serving layer logs and counts a WAL that now holds a batch the client was
// told failed. A Commit that logs but offers no Unlog is refused before
// anything is logged, planned or sent.
func TestAbortReportsFailedUnlog(t *testing.T) {
	errWedged := errors.New("log wedged")
	errApply := errors.New("apply refused")
	for _, site := range []string{"phase-1", "commit"} {
		t.Run(site, func(t *testing.T) {
			g := testGraph(t, 8)
			links, _, stop := InProcess(2)
			defer stop()
			if site == "phase-1" {
				// Worker 1 dies on the first request after hello + 4 placements
				// (see TestWorkerDisconnectMidPhase1FailsAtomically).
				links[1].Conn = &droppingConn{Conn: links[1].Conn, budget: 10}
			}
			co, err := NewCoordinator(g, links, CoordinatorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			b := gen.Updates(g.Clone(), gen.UpdateSpec{Count: 80, InsertRatio: 0.6, Locality: 0.2, Seed: 7})
			logged, unlogged := 0, 0
			err = co.ApplyCommit(b, time.Time{}, Commit{
				Log:   func(graph.Batch, uint64) error { logged++; return nil },
				Unlog: func() error { unlogged++; return errWedged },
				Apply: func(graph.Batch) error { return errApply },
			})
			if logged != 1 || unlogged != 1 {
				t.Fatalf("Log ran %d times, Unlog %d; want 1 and 1", logged, unlogged)
			}
			if !errors.Is(err, errWedged) {
				t.Fatalf("the failed Unlog is not in the abort's error: %v", err)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("the abort's error spans lines; the daemon sends it as a one-line reply: %q", err)
			}
			if site == "commit" && !errors.Is(err, errApply) {
				t.Fatalf("the abort's cause is not in its error: %v", err)
			}
			if site == "phase-1" && errors.Is(err, errApply) {
				t.Fatalf("commit ran despite the phase-1 failure: %v", err)
			}
		})
	}

	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(g, links, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	b := gen.Updates(g.Clone(), gen.UpdateSpec{Count: 20, InsertRatio: 0.6, Locality: 0.2, Seed: 8})
	err = co.ApplyCommit(b, time.Time{}, Commit{
		Log:   func(graph.Batch, uint64) error { t.Error("logged a batch that cannot be unlogged"); return nil },
		Apply: func(graph.Batch) error { t.Error("committed a batch that cannot be unlogged"); return nil },
	})
	if err == nil {
		t.Fatal("Commit{Log} without Unlog was accepted")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("a refused Commit reached the workers: %v", err)
	}
}
