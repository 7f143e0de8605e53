package incgraph_test

// Differential test of the one commit road: the same update stream drives
// Durable.Commit locally (no Via) and through a cluster (phase 1 on two
// workers before the log append), and both must produce byte-identical
// per-batch summaries, final answers, and raw WAL file bytes. Via changes
// only how a batch is validated, never what is committed, in what order,
// or what recovery would replay.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incgraph"
)

func TestClusterCommitMatchesLocal(t *testing.T) {
	cells := []struct {
		name    string
		cluster bool
	}{
		{"local", false},
		{"cluster", true},
	}

	type result struct {
		sums   []string // rendered summaries, one line per batch
		answer string
		wal    []byte
	}
	results := make([]result, len(cells))

	for ci, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			g, batches := diffWorkload(t, 7788)
			g.SetShards(8)
			dir := t.TempDir()
			d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{
				Sync: incgraph.SyncNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			kwsQ, err := incgraph.RandomKWSQuery(g, 3, 2, 7788)
			if err != nil {
				t.Fatal(err)
			}
			kws, err := incgraph.NewKWS(d.Graph().Clone(), kwsQ)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Attach(incgraph.MaintainKWS(kws)); err != nil {
				t.Fatal(err)
			}

			var apply incgraph.ApplyOptions
			if cell.cluster {
				links, _, stopWorkers := incgraph.InProcessLinks(2)
				defer stopWorkers()
				cl, err := incgraph.NewCluster(d.Graph(), links)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				apply.Via = cl
			}

			res := &results[ci]
			for bi, b := range batches {
				sums, err := d.Commit(b, apply)
				if err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				var line []string
				for _, s := range sums {
					line = append(line, s.String())
				}
				res.sums = append(res.sums, strings.Join(line, " "))
			}
			res.answer = answerOf(t, d.Engines()[0])

			// Close flushes; the WAL file on disk is what recovery would
			// replay — it must not depend on which way the commits went.
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(wals) != 1 {
				t.Fatalf("want exactly one WAL file, got %v (%v)", wals, err)
			}
			res.wal, err = os.ReadFile(wals[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(res.wal) == 0 {
				t.Fatal("WAL file is empty; nothing was logged")
			}
		})
	}

	ref := results[0]
	for ci := 1; ci < len(cells); ci++ {
		got := results[ci]
		if got.answer == "" {
			continue // that subtest already failed
		}
		for bi := range ref.sums {
			if got.sums[bi] != ref.sums[bi] {
				t.Errorf("%s: batch %d summaries diverged from local:\n got %s\nwant %s",
					cells[ci].name, bi, got.sums[bi], ref.sums[bi])
			}
		}
		if got.answer != ref.answer {
			t.Errorf("%s: final answer diverged from local run", cells[ci].name)
		}
		if !bytes.Equal(got.wal, ref.wal) {
			t.Errorf("%s: WAL bytes diverged from local run (%d vs %d bytes)",
				cells[ci].name, len(got.wal), len(ref.wal))
		}
	}
}

// TestClusterCommitBeforeRecoverSendsNothing: a Commit with Via on a store
// that OpenDurable left mid-recovery is refused before the cluster sees
// the batch: no phase-1 frame reaches a worker.
func TestClusterCommitBeforeRecoverSendsNothing(t *testing.T) {
	g, batches := diffWorkload(t, 4343)
	g.SetShards(8)
	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(batches[0], incgraph.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	links, _, stop := incgraph.InProcessLinks(2)
	defer stop()
	cl, err := incgraph.NewCluster(r.Graph(), links)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := r.Commit(batches[1], incgraph.ApplyOptions{Via: cl}); err == nil || !strings.Contains(err.Error(), "before Recover") {
		t.Fatalf("Commit via a cluster before Recover: %v, want a refusal", err)
	}
	if n := cl.RemoteErrors(); n != 0 {
		t.Fatalf("the refused commit cost %d remote errors", n)
	}
	for _, st := range cl.Stats() {
		if st.Remote.Applied != 0 {
			t.Fatalf("worker %s applied %d phase-1 batches of a refused commit", st.Name, st.Remote.Applied)
		}
	}
}
