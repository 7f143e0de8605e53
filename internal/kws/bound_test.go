package kws

import (
	"math/rand"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/history"
)

func TestExtendBoundOnChain(t *testing.T) {
	// chain: 0 → 1 → 2 → 3 → k, keyword at the end.
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	g.AddNode(9, "k")
	for i := 0; i < 3; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.AddEdge(3, 9)
	ix := mustBuild(t, g, Query{Keywords: []string{"k"}, Bound: 1})
	if ix.Size() != 2 { // node 3 (dist 1) and 9 itself (dist 0)
		t.Fatalf("b=1 matches = %v", ix.MatchRoots())
	}
	d, err := ix.ExtendBound(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 2 { // nodes 1 and 2 join
		t.Fatalf("delta = %+v", d)
	}
	if ix.Query().Bound != 3 {
		t.Fatalf("bound not updated")
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	// Extending to the same bound is free; shrinking is refused.
	if d, err := ix.ExtendBound(3); err != nil || d.Len() != 0 {
		t.Fatalf("same-bound extend: %v %+v", err, d)
	}
	if _, err := ix.ExtendBound(1); err == nil {
		t.Fatalf("shrink accepted")
	}
}

func TestExtendBoundEqualsFreshBuild(t *testing.T) {
	// Property: Build(b1) + ExtendBound(b2) == Build(b2), including all
	// kdist distances, on random graphs.
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := history.RandomGraph(rng, 35, 80, "a", "b", "c", "d")
		q1 := Query{Keywords: []string{"a", "c"}, Bound: 1}
		ix := mustBuild(t, g, q1)
		if _, err := ix.ExtendBound(4); err != nil {
			t.Fatal(err)
		}
		if err := ix.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestExtendBoundAfterUpdates(t *testing.T) {
	// Interleave updates and bound extensions.
	rng := rand.New(rand.NewSource(3))
	g := history.RandomGraph(rng, 30, 70, "a", "b", "c")
	ix := mustBuild(t, g, Query{Keywords: []string{"a", "b"}, Bound: 1})
	h := history.New(g, 3)
	if _, err := ix.Apply(h.Batch(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ExtendBound(3); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply(h.Batch(8)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchRootsWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := history.RandomGraph(rng, 40, 100, "a", "b", "c")
	q3 := Query{Keywords: []string{"a", "b"}, Bound: 3}
	ix := mustBuild(t, g.Clone(), q3)
	for b := 0; b <= 3; b++ {
		got, err := ix.MatchRootsWithin(b)
		if err != nil {
			t.Fatal(err)
		}
		fresh := mustBuild(t, g.Clone(), Query{Keywords: []string{"a", "b"}, Bound: b})
		want := fresh.MatchRoots()
		if len(got) != len(want) {
			t.Fatalf("b=%d: %d roots, fresh build has %d", b, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("b=%d: root %d differs: %d vs %d", b, i, got[i], want[i])
			}
		}
	}
	if _, err := ix.MatchRootsWithin(5); err == nil {
		t.Fatalf("bound above maintained accepted")
	}
}

func TestExtendBoundFromZero(t *testing.T) {
	g := graph.New()
	g.AddNode(0, "x")
	g.AddNode(1, "k")
	g.AddEdge(0, 1)
	ix := mustBuild(t, g, Query{Keywords: []string{"k"}, Bound: 0})
	if ix.Size() != 1 { // only the k-node itself
		t.Fatalf("b=0 matches = %v", ix.MatchRoots())
	}
	d, err := ix.ExtendBound(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0].Root != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}
