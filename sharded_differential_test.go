package incgraph_test

// Differential test of the sharded substrate: the same random update
// stream drives a shards=1 engine and a shards=8 engine (both with an
// 8-worker budget) for every query class, and after every batch the
// rendered (sorted) deltas, the answers, and the final graphs must be
// identical. This pins that the partition of the node space — slot
// interleaving, per-shard node collection and its merges in the builds —
// never shows in a result, end to end through the engines. Helpers are
// forced into every loop (graph.EagerFanOut), so the per-shard and
// per-worker merges run concurrently on inputs this small. Run with -race (CI does,
// with GOMAXPROCS=4) for the memory-model half of the guarantee.

import (
	"fmt"
	"sort"
	"testing"

	"incgraph"
	"incgraph/internal/graph"
)

func TestShardedMatchesUnsharded(t *testing.T) {
	defer graph.EagerFanOut()()
	g, batches := diffWorkload(t, 1337)

	kwsQ, err := incgraph.RandomKWSQuery(g, 3, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	rpqQ, err := incgraph.RandomRPQQuery(g, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	isoQ, err := incgraph.RandomISOPattern(g, 3, 3, 2, 17)
	if err != nil {
		t.Fatal(err)
	}

	classes := []struct {
		name string
		mk   func(g *incgraph.Graph) (classRun, error)
	}{
		{"kws", func(g *incgraph.Graph) (classRun, error) {
			ix, err := incgraph.NewKWS(g, kwsQ)
			if err != nil {
				return classRun{}, err
			}
			return classRun{
				apply: func(b incgraph.Batch) (string, error) {
					d, err := ix.Apply(b)
					return fmt.Sprintf("%+v", d), err
				},
				answer: func() string {
					var sb []string
					for _, r := range ix.MatchRoots() {
						m, _ := ix.MatchAt(r)
						sb = append(sb, fmt.Sprintf("%d:%v", r, m.Dists))
					}
					return fmt.Sprint(sb)
				},
			}, nil
		}},
		{"rpq", func(g *incgraph.Graph) (classRun, error) {
			e, err := incgraph.NewRPQFromAst(g, rpqQ)
			if err != nil {
				return classRun{}, err
			}
			return classRun{
				apply: func(b incgraph.Batch) (string, error) {
					d, err := e.Apply(b)
					return fmt.Sprintf("%+v", d), err
				},
				answer: func() string { return fmt.Sprint(e.Matches()) },
			}, nil
		}},
		{"iso", func(g *incgraph.Graph) (classRun, error) {
			ix := incgraph.NewISO(g, isoQ)
			return classRun{
				apply: func(b incgraph.Batch) (string, error) {
					d, err := ix.Apply(b)
					return fmt.Sprintf("%+v", d), err
				},
				answer: func() string { return fmt.Sprint(ix.Matches()) },
			}, nil
		}},
		{"scc", func(g *incgraph.Graph) (classRun, error) {
			s := incgraph.NewSCC(g)
			canon := func(cs [][]incgraph.NodeID) [][]incgraph.NodeID {
				out := append([][]incgraph.NodeID(nil), cs...)
				sort.Slice(out, func(i, j int) bool {
					return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
				})
				return out
			}
			return classRun{
				apply: func(b incgraph.Batch) (string, error) {
					d, err := s.Apply(b)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("+%v -%v", canon(d.Added), canon(d.Removed)), nil
				},
				answer: func() string { return fmt.Sprint(s.ComponentsSorted()) },
			}, nil
		}},
	}

	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g1, g8 := g.Clone(), g.Clone()
			g1.SetShards(1)
			g1.SetParallelism(8)
			g8.SetShards(8)
			g8.SetParallelism(8)
			one, err := c.mk(g1)
			if err != nil {
				t.Fatalf("shards=1 build: %v", err)
			}
			eight, err := c.mk(g8)
			if err != nil {
				t.Fatalf("shards=8 build: %v", err)
			}
			if a, b := one.answer(), eight.answer(); a != b {
				t.Fatalf("initial answers differ:\nshards=1: %s\nshards=8: %s", a, b)
			}
			for i, b := range batches {
				d1, err := one.apply(b)
				if err != nil {
					t.Fatalf("batch %d shards=1: %v", i, err)
				}
				d8, err := eight.apply(b)
				if err != nil {
					t.Fatalf("batch %d shards=8: %v", i, err)
				}
				if d1 != d8 {
					t.Fatalf("batch %d deltas differ:\nshards=1: %s\nshards=8: %s", i, d1, d8)
				}
				if a, bb := one.answer(), eight.answer(); a != bb {
					t.Fatalf("batch %d answers differ:\nshards=1: %s\nshards=8: %s", i, a, bb)
				}
				if !g1.Equal(g8) || !g8.Equal(g1) {
					t.Fatalf("batch %d: graphs diverged between shard counts", i)
				}
			}
		})
	}
}

// TestShardedBatchFallbackParity drives a ΔG large enough to trip the
// cost-model batch fallback of KWS and ISO (|ΔG| far past the incremental
// crossover) and checks the fallback produces the same deltas and answers
// as a reference engine kept on the incremental regime's graph — by
// comparing against a from-scratch engine built on the post-update graph.
func TestShardedBatchFallbackParity(t *testing.T) {
	defer graph.EagerFanOut()()
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1200, Labels: 3, GiantSCCFrac: 0.4, Seed: 5,
	})
	scratch := g.Clone()
	big := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
		Count: 1600, InsertRatio: 0.6, Locality: 0.3, Seed: 6,
	})
	if err := scratch.ApplyBatch(big); err != nil {
		t.Fatalf("workload batch invalid: %v", err)
	}

	kwsQ, err := incgraph.RandomKWSQuery(g, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	gk := g.Clone()
	ix, err := incgraph.NewKWS(gk, kwsQ)
	if err != nil {
		t.Fatal(err)
	}
	pre := ix.Snapshot()
	d, err := ix.Apply(big)
	if err != nil {
		t.Fatalf("kws big apply: %v", err)
	}
	if !ix.LastEstimate().PreferBatch() {
		t.Fatalf("kws estimate did not prefer batch on |ΔG|=%d (|E|=%d): %v",
			len(big), g.NumEdges(), ix.LastEstimate())
	}
	fresh, err := incgraph.NewKWS(gk.Clone(), kwsQ)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprint(ix.MatchRoots()), fmt.Sprint(fresh.MatchRoots()); a != b {
		t.Fatalf("kws fallback answer differs from fresh build:\nfallback: %s\nfresh:    %s", a, b)
	}
	// The fallback's Delta must be the exact output change: diff the pre
	// and post snapshots independently and compare classifications.
	post := ix.Snapshot()
	var wantAdd, wantRem, wantUpd []string
	for r, ds := range post {
		old, was := pre[r]
		switch {
		case !was:
			wantAdd = append(wantAdd, fmt.Sprintf("%d:%v", r, ds))
		case fmt.Sprint(old) != fmt.Sprint(ds):
			wantUpd = append(wantUpd, fmt.Sprintf("%d:%v", r, ds))
		}
	}
	for r := range pre {
		if _, ok := post[r]; !ok {
			wantRem = append(wantRem, fmt.Sprint(r))
		}
	}
	sort.Strings(wantAdd)
	sort.Strings(wantRem)
	sort.Strings(wantUpd)
	var gotAdd, gotRem, gotUpd []string
	for _, m := range d.Added {
		gotAdd = append(gotAdd, fmt.Sprintf("%d:%v", m.Root, m.Dists))
	}
	for _, r := range d.Removed {
		gotRem = append(gotRem, fmt.Sprint(r))
	}
	for _, m := range d.Updated {
		gotUpd = append(gotUpd, fmt.Sprintf("%d:%v", m.Root, m.Dists))
	}
	sort.Strings(gotAdd)
	sort.Strings(gotRem)
	sort.Strings(gotUpd)
	if fmt.Sprint(gotAdd) != fmt.Sprint(wantAdd) ||
		fmt.Sprint(gotRem) != fmt.Sprint(wantRem) ||
		fmt.Sprint(gotUpd) != fmt.Sprint(wantUpd) {
		t.Fatalf("kws fallback Delta is not the exact output change:\ngot  +%v -%v ~%v\nwant +%v -%v ~%v",
			gotAdd, gotRem, gotUpd, wantAdd, wantRem, wantUpd)
	}

	isoQ, err := incgraph.RandomISOPattern(g, 3, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	gi := g.Clone()
	ixi := incgraph.NewISO(gi, isoQ)
	preISO := make(map[string]bool)
	for _, m := range ixi.Matches() {
		preISO[m.Key()] = true
	}
	di, err := ixi.Apply(big)
	if err != nil {
		t.Fatalf("iso big apply: %v", err)
	}
	if !ixi.LastEstimate().PreferBatch() {
		t.Fatalf("iso estimate did not prefer batch on |ΔG|=%d: %v", len(big), ixi.LastEstimate())
	}
	freshISO := incgraph.NewISO(gi.Clone(), isoQ)
	if a, b := fmt.Sprint(ixi.Matches()), fmt.Sprint(freshISO.Matches()); a != b {
		t.Fatalf("iso fallback answer differs from fresh build:\nfallback: %s\nfresh:    %s", a, b)
	}
	// The fallback's Delta must be the exact set difference of old and new
	// match sets, sorted by canonical key.
	postISO := make(map[string]bool)
	for _, m := range ixi.Matches() {
		postISO[m.Key()] = true
	}
	var wantAddI, wantRemI []string
	for k := range postISO {
		if !preISO[k] {
			wantAddI = append(wantAddI, k)
		}
	}
	for k := range preISO {
		if !postISO[k] {
			wantRemI = append(wantRemI, k)
		}
	}
	sort.Strings(wantAddI)
	sort.Strings(wantRemI)
	var gotAddI, gotRemI []string
	for _, m := range di.Added {
		gotAddI = append(gotAddI, m.Key())
	}
	for _, m := range di.Removed {
		gotRemI = append(gotRemI, m.Key())
	}
	if fmt.Sprint(gotAddI) != fmt.Sprint(wantAddI) || fmt.Sprint(gotRemI) != fmt.Sprint(wantRemI) {
		t.Fatalf("iso fallback Delta is not the exact output change:\ngot  +%v -%v\nwant +%v -%v",
			gotAddI, gotRemI, wantAddI, wantRemI)
	}
	if len(gotAddI) == 0 && len(gotRemI) == 0 {
		t.Fatal("iso fallback workload produced an empty delta; test has no power")
	}
}
