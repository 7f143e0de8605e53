package graph

// Allocation-regression tests for the traversal kernels and the sorted
// adjacency: on a warm graph (scratch buffers grown) the hot paths must
// allocate nothing. These pin the "allocation-free traversal" property so
// it cannot silently regress.

import (
	"math/rand"
	"testing"
)

// warmGraph builds a connected random graph and runs each kernel once so
// every scratch buffer has reached steady-state capacity.
func warmGraph(tb testing.TB, n int) *Graph {
	tb.Helper()
	g := New()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), "l")
	}
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(rng.Intn(i)), NodeID(i)) // spanning tree: connected
	}
	for i := 0; i < 2*n; i++ {
		v, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if v != w && !g.HasEdge(v, w) {
			g.AddEdge(v, w)
		}
	}
	return g
}

func TestBFSFromAllocFree(t *testing.T) {
	g := warmGraph(t, 500)
	sources := []NodeID{0}
	count := 0
	visit := func(v NodeID, d int) bool { count++; return true }
	g.BFSFrom(sources, visit) // warm the scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		g.BFSFrom(sources, visit)
	})
	if allocs != 0 {
		t.Fatalf("BFSFrom on a warm graph: %.1f allocs/op, want 0", allocs)
	}
	if count == 0 {
		t.Fatal("BFS visited nothing")
	}
}

func TestReverseBFSFromAllocFree(t *testing.T) {
	g := warmGraph(t, 500)
	sources := []NodeID{NodeID(499)}
	visit := func(v NodeID, d int) bool { return true }
	g.ReverseBFSFrom(sources, visit)
	allocs := testing.AllocsPerRun(20, func() {
		g.ReverseBFSFrom(sources, visit)
	})
	if allocs != 0 {
		t.Fatalf("ReverseBFSFrom on a warm graph: %.1f allocs/op, want 0", allocs)
	}
}

func TestForEachWithinAllocFree(t *testing.T) {
	g := warmGraph(t, 500)
	seeds := []NodeID{3, 77}
	visit := func(v NodeID, d int) bool { return true }
	g.ForEachWithin(seeds, 3, visit)
	allocs := testing.AllocsPerRun(20, func() {
		g.ForEachWithin(seeds, 3, visit)
	})
	if allocs != 0 {
		t.Fatalf("ForEachWithin on a warm graph: %.1f allocs/op, want 0", allocs)
	}
}

func TestReachesAllocFree(t *testing.T) {
	g := warmGraph(t, 500)
	g.Reaches(0, 499)
	allocs := testing.AllocsPerRun(20, func() {
		g.Reaches(0, 499)
	})
	if allocs != 0 {
		t.Fatalf("Reaches on a warm graph: %.1f allocs/op, want 0", allocs)
	}
}

// TestTraversalAllocFreeSharded re-pins the allocation-free warm path on a
// multi-shard graph: the sharded record lookup and interleaved slot space
// must not reintroduce per-call allocations in any kernel.
func TestTraversalAllocFreeSharded(t *testing.T) {
	g := warmGraph(t, 500)
	g.SetShards(4)
	sources := []NodeID{0}
	seeds := []NodeID{3, 77}
	kernels := []struct {
		name string
		run  func()
	}{
		{"BFSFrom", func() { g.BFSFrom(sources, func(NodeID, int) bool { return true }) }},
		{"ReverseBFSFrom", func() { g.ReverseBFSFrom([]NodeID{499}, func(NodeID, int) bool { return true }) }},
		{"ForEachWithin", func() { g.ForEachWithin(seeds, 3, func(NodeID, int) bool { return true }) }},
		{"Reaches", func() { g.Reaches(0, 499) }},
	}
	for _, k := range kernels {
		k.run() // warm the scratch buffers at the resharded slot ceiling
		if allocs := testing.AllocsPerRun(20, k.run); allocs != 0 {
			t.Errorf("%s on a warm 4-shard graph: %.1f allocs/op, want 0", k.name, allocs)
		}
	}
}

// TestSuccessorsSortedAllocFree: the sorted adjacency is the storage, at
// low degree and on a hub straight after its mutations alike.
func TestSuccessorsSortedAllocFree(t *testing.T) {
	g := warmGraph(t, 500)
	var v NodeID = -1
	for i := 0; i < 500; i++ {
		if d := g.OutDegree(NodeID(i)); d >= 2 && d <= 16 {
			v = NodeID(i)
			break
		}
	}
	if v < 0 {
		t.Fatal("no low-degree node found")
	}
	allocs := testing.AllocsPerRun(20, func() {
		_ = g.SuccessorsSorted(v)
	})
	if allocs != 0 {
		t.Fatalf("SuccessorsSorted (low degree): %.1f allocs/op, want 0", allocs)
	}

	hub := NodeID(10_000)
	g.AddNode(hub, "hub")
	for i := 48; i > 0; i-- {
		g.AddEdge(hub, NodeID(i))
	}
	g.DeleteEdge(hub, 7)
	var n int
	allocs = testing.AllocsPerRun(20, func() {
		n = len(g.SuccessorsSorted(hub))
	})
	if allocs != 0 {
		t.Fatalf("SuccessorsSorted (hub): %.1f allocs/op, want 0", allocs)
	}
	if n != 47 {
		t.Fatalf("hub has %d sorted successors, want 47", n)
	}
}
