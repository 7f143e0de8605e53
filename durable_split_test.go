package incgraph_test

// Tests of Commit's two hooks, ApplyOptions.Log and .Exclusive (the serving
// path uses them to retry a failing disk and to keep the WAL fsync outside
// its read-exclusion window): a hooked Commit must be byte-identical to a
// plain one, and a crash between the log step and the apply step must replay
// the logged batch on recovery exactly like a crash mid-apply would.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"incgraph"
)

func TestHookedCommitMatchesPlain(t *testing.T) {
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1500, Labels: 6, GiantSCCFrac: 0.4, Seed: 21,
	})
	q := mkDurableQueries(t, g, 21)

	dir := t.TempDir()
	split, err := incgraph.CreateDurable(filepath.Join(dir, "split"), g.Clone(), incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Attach(mkEngines(t, split.Graph(), q)...); err != nil {
		t.Fatal(err)
	}
	plain, err := incgraph.CreateDurable(filepath.Join(dir, "plain"), g.Clone(), incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Attach(mkEngines(t, plain.Graph(), q)...); err != nil {
		t.Fatal(err)
	}

	scratch := g.Clone()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 6; i++ {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 40, InsertRatio: 0.6, Locality: 0.5, Seed: rng.Int63(),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		// What the daemon does: its own append around LogPlanned, the apply
		// step run under its own exclusion.
		logged, applied := false, false
		if _, err := split.Commit(b, incgraph.ApplyOptions{
			Log: func(bb incgraph.Batch, gen uint64) error {
				logged = true
				return split.LogPlanned(bb, gen)
			},
			Exclusive: func(apply func() error) error {
				if !logged {
					t.Fatalf("batch %d: apply step ran before the log step", i)
				}
				applied = true
				return apply()
			},
		}); err != nil {
			t.Fatalf("hooked Commit batch %d: %v", i, err)
		}
		if !applied {
			t.Fatalf("batch %d: Exclusive hook never ran", i)
		}
		if _, err := plain.Commit(b, incgraph.ApplyOptions{}); err != nil {
			t.Fatalf("plain Commit batch %d: %v", i, err)
		}
	}
	compareAnswers(t, "split vs plain", answers(t, plain.Engines()), answers(t, split.Engines()))
	if sg, pg := split.Generation(), plain.Generation(); sg != pg {
		t.Fatalf("generation diverged: split %d, plain %d", sg, pg)
	}
	split.Close()
	plain.Close()
}

func TestCrashBetweenLogAndApplyReplays(t *testing.T) {
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 200, Edges: 900, Labels: 5, GiantSCCFrac: 0.4, Seed: 31,
	})
	q := mkDurableQueries(t, g, 31)

	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(mkEngines(t, d.Graph(), q)...); err != nil {
		t.Fatal(err)
	}
	scratch := g.Clone()
	b1 := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{Count: 30, InsertRatio: 0.7, Locality: 0.5, Seed: 7})
	if err := scratch.ApplyBatch(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(b1, incgraph.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	// Log b2 but "crash" before the apply step: close the WAL with the
	// record durable and the in-memory state behind it.
	b2 := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{Count: 30, InsertRatio: 0.7, Locality: 0.5, Seed: 8})
	if err := scratch.ApplyBatch(b2); err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("crashed before apply")
	if _, err := d.Commit(b2, incgraph.ApplyOptions{
		Exclusive: func(func() error) error { return errCrash },
	}); !errors.Is(err, errCrash) {
		t.Fatalf("Commit with a crashing apply step: %v", err)
	}
	if seq := d.WALSeq(); seq != 2 {
		t.Fatalf("WAL seq %d after the crashed commit, want 2 (b2 logged)", seq)
	}
	d.Close()

	// The uninterrupted twin applies both batches fully.
	want := mkEngines(t, g, q)
	for _, m := range want {
		for _, b := range []incgraph.Batch{b1, b2} {
			if _, err := m.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	re, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Attach(mkEngines(t, re.Graph(), q)...); err != nil {
		t.Fatal(err)
	}
	if err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	compareAnswers(t, "recovered vs uninterrupted", answers(t, want), answers(t, re.Engines()))
	re.Close()
}
