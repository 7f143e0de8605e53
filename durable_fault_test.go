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
