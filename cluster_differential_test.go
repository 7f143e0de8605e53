package incgraph_test

// Differential test of the distributed substrate: the same update stream
// drives a cluster deployment — coordinator with shards=8 and two shard
// workers over the deterministic in-process transport — and a plain
// single-process engine at shards=8, for every query class. After every
// batch the rendered ΔO summaries, the canonical answers (WriteAnswer,
// the byte-identity currency of the whole system), and the graphs must be
// identical; mid-stream and at the end every worker's shard replica must
// export byte-identical to the coordinator's authoritative segment. This
// pins the central guarantee: a distributed apply is byte-identical to the
// single-process one.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"incgraph"
)

// maintEngines builds one engine per query class on clones of g.
func maintEngines(t *testing.T, g *incgraph.Graph, seed int64) []incgraph.Maintained {
	t.Helper()
	kwsQ, err := incgraph.RandomKWSQuery(g, 3, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	rpqQ, err := incgraph.RandomRPQQuery(g, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	isoQ, err := incgraph.RandomISOPattern(g, 3, 3, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	kws, err := incgraph.NewKWS(g.Clone(), kwsQ)
	if err != nil {
		t.Fatal(err)
	}
	rpq, err := incgraph.NewRPQFromAst(g.Clone(), rpqQ)
	if err != nil {
		t.Fatal(err)
	}
	return []incgraph.Maintained{
		incgraph.MaintainKWS(kws),
		incgraph.MaintainRPQ(rpq),
		incgraph.MaintainSCC(incgraph.NewSCC(g.Clone())),
		incgraph.MaintainISO(incgraph.NewISO(g.Clone(), isoQ)),
	}
}

func answerOf(t *testing.T, m incgraph.Maintained) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteAnswer(&buf); err != nil {
		t.Fatalf("%s: WriteAnswer: %v", m.Class(), err)
	}
	return buf.String()
}

func TestClusterMatchesSingleProcess(t *testing.T) {
	g, batches := diffWorkload(t, 4242)
	g.SetShards(8)

	// Cluster side: authoritative graph + engines at the coordinator, two
	// shard workers over in-process pipes.
	cg := g.Clone()
	links, _, stopWorkers := incgraph.InProcessLinks(2)
	defer stopWorkers()
	cl, err := incgraph.NewCluster(cg, links)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clusterEngines := maintEngines(t, cg, 99)

	// Single-process reference at the same shard count.
	sg := g.Clone()
	singleEngines := maintEngines(t, sg, 99)

	for i := range clusterEngines {
		if a, b := answerOf(t, clusterEngines[i]), answerOf(t, singleEngines[i]); a != b {
			t.Fatalf("%s: initial answers differ", clusterEngines[i].Class())
		}
	}

	for bi, b := range batches {
		// Cluster: the distributed two-phase apply; commit applies the
		// batch to the authoritative graph and every engine, exactly like
		// the durable path does.
		var clusterSums []string
		err := cl.Apply(b, time.Time{}, func() error {
			if err := cg.ApplyBatch(b); err != nil {
				return err
			}
			for _, m := range clusterEngines {
				sum, err := m.Apply(b)
				if err != nil {
					return fmt.Errorf("%s: %w", m.Class(), err)
				}
				clusterSums = append(clusterSums, fmt.Sprintf("%s:%s", m.Class(), sum))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d: cluster apply: %v", bi, err)
		}

		// Single-process reference.
		var singleSums []string
		if err := sg.ApplyBatch(b); err != nil {
			t.Fatalf("batch %d: reference apply: %v", bi, err)
		}
		for _, m := range singleEngines {
			sum, err := m.Apply(b)
			if err != nil {
				t.Fatalf("batch %d: %s: %v", bi, m.Class(), err)
			}
			singleSums = append(singleSums, fmt.Sprintf("%s:%s", m.Class(), sum))
		}

		if a, b := fmt.Sprint(clusterSums), fmt.Sprint(singleSums); a != b {
			t.Fatalf("batch %d deltas differ:\ncluster: %s\nsingle:  %s", bi, a, b)
		}
		for i := range clusterEngines {
			if a, b := answerOf(t, clusterEngines[i]), answerOf(t, singleEngines[i]); a != b {
				t.Fatalf("batch %d: %s answers differ:\ncluster:\n%s\nsingle:\n%s",
					bi, clusterEngines[i].Class(), a, b)
			}
		}
		if !cg.Equal(sg) || !sg.Equal(cg) {
			t.Fatalf("batch %d: graphs diverged", bi)
		}

		if bi == len(batches)/2 {
			if err := cl.VerifyAll(); err != nil {
				t.Fatalf("replicas diverged mid-stream: %v", err)
			}
		}
	}

	// Distributed state parity: every worker replica must export
	// byte-identical to the coordinator's authoritative segment.
	if err := cl.VerifyAll(); err != nil {
		t.Fatalf("final replica verification: %v", err)
	}
	if cl.RemoteErrors() != 0 {
		t.Fatalf("stream recorded %d remote errors", cl.RemoteErrors())
	}
}

// TestClusterDurableCommitVia pins the durable composition: commits routed
// through Durable.Commit with ApplyOptions.Via recover to the same bytes as a single-process
// durable run, and the WAL sees nothing from aborted batches.
func TestClusterDurableCommitVia(t *testing.T) {
	g, batches := diffWorkload(t, 777)
	g.SetShards(8)

	dir := t.TempDir()
	cg := g.Clone()
	d, err := incgraph.CreateDurable(dir, cg, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	kwsQ, err := incgraph.RandomKWSQuery(g, 2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := incgraph.NewKWS(cg.Clone(), kwsQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(incgraph.MaintainKWS(ix)); err != nil {
		t.Fatal(err)
	}
	links, _, stopWorkers := incgraph.InProcessLinks(2)
	defer stopWorkers()
	cl, err := incgraph.NewCluster(cg, links)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i, b := range batches {
		if _, err := d.Commit(b, incgraph.ApplyOptions{Via: cl}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	walSeq := d.WALSeq()
	if walSeq != uint64(len(batches)) {
		t.Fatalf("WAL seq %d, want %d", walSeq, len(batches))
	}
	want := answerOf(t, d.Engines()[0])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover as a fresh process would and require byte-identical answers.
	d2, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ix2, err := incgraph.NewKWS(d2.Graph().Clone(), kwsQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Attach(incgraph.MaintainKWS(ix2)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := answerOf(t, d2.Engines()[0]); got != want {
		t.Fatalf("recovered answers differ from cluster run:\nbefore:\n%s\nafter:\n%s", want, got)
	}
}
