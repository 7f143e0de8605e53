package incgraph_test

// Seeded disk-fault drills over the Durable layer: the "acked ⇒ durable,
// not-acked ⇒ absent after replay" invariant must hold when the WAL's
// fsync fails mid-stream and the process then dies. Every Apply that
// returned success must be visible after recovery; every Apply the fault
// refused must have left no trace — the recovered graph equals a
// reference graph that applied exactly the acknowledged batches.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incgraph"
)

// TestDurableFsyncFailThenCrashParity injects an fsync failure on the
// k-th WAL sync for several k, applies a stream of batches (the faulted
// one is refused), "crashes" by abandoning the handle without Close, and
// recovers the directory on the clean filesystem. Recovery must land on
// exactly the acknowledged prefix, with the SCC engine's maintained
// answers byte-identical to a reference engine fed the same acked batches.
func TestDurableFsyncFailThenCrashParity(t *testing.T) {
	// Sync #0 is the WAL-create header fsync, so k >= 1 targets an append.
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("sync-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			g := incgraph.SyntheticGraph(incgraph.GraphSpec{
				Nodes: 100, Edges: 400, Labels: 4, GiantSCCFrac: 0.4, Seed: 17,
			})
			ref := g.Clone()

			ffs := incgraph.NewFaultFS(21, incgraph.FSRule{
				Op: "sync", Path: "wal", Index: k, Kind: incgraph.FaultSyncFail,
			})
			d, err := incgraph.CreateDurable(dir, g, incgraph.DurableOptions{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Attach(incgraph.MaintainSCC(incgraph.NewSCC(g.Clone()))); err != nil {
				t.Fatal(err)
			}

			acked := 0
			for i := 0; i < 6; i++ {
				b := incgraph.RandomUpdates(ref, incgraph.UpdateSpec{
					Count: 25, InsertRatio: 0.6, Locality: 0.5, Seed: int64(700 + i),
				})
				if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
					// Refused: the batch must not exist anywhere. Later
					// batches are generated against ref, which never saw it.
					continue
				}
				if err := ref.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				acked++
			}
			if acked != 5 {
				t.Fatalf("acked %d batches, want 5 (exactly one refusal)", acked)
			}
			// Crash: no Close, no final sync. The faulted append was rolled
			// back at refusal time, so the on-disk WAL is already clean.

			d2, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer d2.Close()
			scc := incgraph.MaintainSCC(incgraph.NewSCC(d2.Graph().Clone()))
			if err := d2.Attach(scc); err != nil {
				t.Fatal(err)
			}
			if err := d2.Recover(); err != nil {
				t.Fatalf("recovery replay: %v", err)
			}
			if !d2.Graph().Equal(ref) {
				t.Fatal("recovered graph != reference of acked batches: parity broken")
			}

			// Maintained answers match an engine that lived through the
			// acked stream without any disk trouble.
			refSCC := incgraph.MaintainSCC(incgraph.NewSCC(ref.Clone()))
			var got, want bytes.Buffer
			if err := scc.WriteAnswer(&got); err != nil {
				t.Fatal(err)
			}
			if err := refSCC.WriteAnswer(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("recovered SCC answers diverge from reference")
			}
		})
	}
}

// TestClusterCommitWALFailureAfterPhase1: a cluster commit whose WAL append
// fails after phase 1 — ENOSPC part-way through the record — returns the
// error and leaves WALSeq, the graph and every engine as they were. The
// workers did apply the batch, so the next commit re-places its shards, the
// replicas verify clean, and the store recovers to exactly what a
// single-process run of the same stream holds: WAL bytes, graph and answers.
func TestClusterCommitWALFailureAfterPhase1(t *testing.T) {
	g, batches := diffWorkload(t, 5151)
	g.SetShards(8)
	q := mkDurableQueries(t, g, 51)
	dir := t.TempDir()
	open := func(name string, fs incgraph.FS) *incgraph.Durable {
		d, err := incgraph.CreateDurable(filepath.Join(dir, name), g.Clone(), incgraph.DurableOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Attach(mkEngines(t, d.Graph(), q)...); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// WAL write #0 is the header, so #3 is the third batch's record.
	d := open("cluster", incgraph.NewFaultFS(5, incgraph.FSRule{
		Op: "write", Path: "wal", Index: 3, Kind: incgraph.FaultENOSPC, Keep: 7,
	}))
	links, _, stop := incgraph.InProcessLinks(2)
	defer stop()
	cl, err := incgraph.NewCluster(d.Graph(), links)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	via := incgraph.ApplyOptions{Via: cl}
	for i := 0; i < 2; i++ {
		if _, err := d.Commit(batches[i], via); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	seq, graph, ans := d.WALSeq(), d.Graph().Clone(), answers(t, d.Engines())
	if _, err := d.Commit(batches[2], via); err == nil || !strings.Contains(err.Error(), "WAL append") {
		t.Fatalf("commit over a full disk: %v, want the WAL append's error", err)
	}
	if d.WALSeq() != seq || !d.Graph().Equal(graph) {
		t.Fatalf("the failed commit moved the store: WAL seq %d → %d, graph changed %v", seq, d.WALSeq(), !d.Graph().Equal(graph))
	}
	compareAnswers(t, "after the failed append", ans, answers(t, d.Engines()))

	resyncs := cl.Resyncs()
	for i := 2; i < len(batches); i++ {
		if _, err := d.Commit(batches[i], via); err != nil {
			t.Fatalf("batch %d after the failure: %v", i, err)
		}
	}
	if cl.Resyncs() == resyncs {
		t.Fatal("the next commit re-placed no shard the failed one had applied on the workers")
	}
	if err := cl.VerifyAll(); err != nil {
		t.Fatalf("replicas after the failed append: %v", err)
	}
	d.Close()

	single := open("single", nil)
	for i, b := range batches {
		if _, err := single.Commit(b, incgraph.ApplyOptions{}); err != nil {
			t.Fatalf("single-process batch %d: %v", i, err)
		}
	}
	single.Close()
	walOf := func(name string) []byte {
		wals, err := filepath.Glob(filepath.Join(dir, name, "wal-*.log"))
		if err != nil || len(wals) != 1 {
			t.Fatalf("%s: want one WAL file, got %v (%v)", name, wals, err)
		}
		b, err := os.ReadFile(wals[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(walOf("cluster"), walOf("single")) {
		t.Fatal("the cluster's WAL differs from the single-process one")
	}
	reopen := func(name string) *incgraph.Durable {
		r, err := incgraph.OpenDurable(filepath.Join(dir, name), incgraph.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		if err := r.Attach(mkEngines(t, r.Graph(), q)...); err != nil {
			t.Fatal(err)
		}
		if err := r.Recover(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	rc, rs := reopen("cluster"), reopen("single")
	if !rc.Graph().Equal(rs.Graph()) {
		t.Fatal("the recovered cluster store's graph differs from the single-process one")
	}
	compareAnswers(t, "recovered cluster vs single-process", answers(t, rs.Engines()), answers(t, rc.Engines()))
}
