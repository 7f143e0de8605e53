package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	g.AddNode(3, "b")
	g.AddNode(4, "c")
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	g.AddEdge(3, 4)
	return g
}

func TestAddAndQueryNodes(t *testing.T) {
	g := New()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph not empty: %v", g)
	}
	g.AddNode(7, "x")
	if !g.HasNode(7) || g.Label(7) != "x" {
		t.Fatalf("node 7 not stored correctly")
	}
	if g.HasNode(8) {
		t.Fatalf("phantom node 8")
	}
	g.AddNode(7, "y") // relabel
	if g.Label(7) != "y" {
		t.Fatalf("relabel failed: %q", g.Label(7))
	}
	if !g.EnsureNode(8, "z") {
		t.Fatalf("EnsureNode should insert new node")
	}
	if g.EnsureNode(8, "w") {
		t.Fatalf("EnsureNode should not reinsert")
	}
	if g.Label(8) != "z" {
		t.Fatalf("EnsureNode must not relabel: %q", g.Label(8))
	}
}

func TestEdgesBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumEdges() != 4 {
		t.Fatalf("want 4 edges, got %d", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatalf("directedness broken")
	}
	if g.AddEdge(1, 2) {
		t.Fatalf("duplicate edge reported as new")
	}
	if g.NumEdges() != 4 {
		t.Fatalf("duplicate insert changed edge count")
	}
	if !g.DeleteEdge(1, 2) || g.DeleteEdge(1, 2) {
		t.Fatalf("delete semantics broken")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("want 3 edges after delete, got %d", g.NumEdges())
	}
	if g.OutDegree(1) != 1 || g.InDegree(4) != 2 {
		t.Fatalf("degrees wrong: out(1)=%d in(4)=%d", g.OutDegree(1), g.InDegree(4))
	}
}

func TestAddEdgeMissingEndpointPanics(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for missing endpoint")
		}
	}()
	g.AddEdge(1, 99)
}

func TestSelfLoop(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	if !g.AddEdge(1, 1) {
		t.Fatalf("self-loop rejected")
	}
	if g.NumEdges() != 1 || !g.HasEdge(1, 1) {
		t.Fatalf("self-loop not stored")
	}
	if !g.DeleteNode(1) {
		t.Fatalf("delete node failed")
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("self-loop node deletion left residue: %v", g)
	}
}

func TestDeleteNodeRemovesIncidentEdges(t *testing.T) {
	g := buildDiamond(t)
	g.DeleteNode(2)
	if g.HasEdge(1, 2) || g.HasEdge(2, 4) {
		t.Fatalf("edges to deleted node survive")
	}
	if g.NumEdges() != 2 || g.NumNodes() != 3 {
		t.Fatalf("counts wrong after node delete: %v", g)
	}
}

func TestSortedAccessors(t *testing.T) {
	g := buildDiamond(t)
	succ := g.SuccessorsSorted(1)
	if len(succ) != 2 || succ[0] != 2 || succ[1] != 3 {
		t.Fatalf("SuccessorsSorted(1) = %v", succ)
	}
	pred := g.PredecessorsSorted(4)
	if len(pred) != 2 || pred[0] != 2 || pred[1] != 3 {
		t.Fatalf("PredecessorsSorted(4) = %v", pred)
	}
	nodes := g.NodesSorted()
	if len(nodes) != 4 || nodes[0] != 1 || nodes[3] != 4 {
		t.Fatalf("NodesSorted = %v", nodes)
	}
	es := g.EdgesSorted()
	if len(es) != 4 || es[0] != (Edge{1, 2}) || es[3] != (Edge{3, 4}) {
		t.Fatalf("EdgesSorted = %v", es)
	}
	bs := g.NodesWithLabel("b")
	if len(bs) != 2 || bs[0] != 2 || bs[1] != 3 {
		t.Fatalf("NodesWithLabel(b) = %v", bs)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatalf("clone not equal")
	}
	c.DeleteEdge(1, 2)
	c.AddNode(99, "q")
	if g.HasNode(99) || !g.HasEdge(1, 2) {
		t.Fatalf("clone shares state with original")
	}
	if g.Equal(c) {
		t.Fatalf("Equal failed to detect difference")
	}
}

func TestMaxNodeID(t *testing.T) {
	g := New()
	if g.MaxNodeID() != -1 {
		t.Fatalf("empty MaxNodeID = %d", g.MaxNodeID())
	}
	g.AddNode(5, "a")
	g.AddNode(42, "b")
	if g.MaxNodeID() != 42 {
		t.Fatalf("MaxNodeID = %d", g.MaxNodeID())
	}
}

// randomGraph builds a random graph with n nodes and ~m edges for
// property-style tests.
func randomGraph(rng *rand.Rand, n, m int, labels []string) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return g
}

func TestEdgeCountInvariant(t *testing.T) {
	// Property: after any interleaving of inserts and deletes, NumEdges
	// equals the number of distinct present edges.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 10
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i), "x")
		}
		present := make(map[Edge]bool)
		for step := 0; step < 200; step++ {
			v, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				g.AddEdge(v, w)
				present[Edge{v, w}] = true
			} else {
				g.DeleteEdge(v, w)
				delete(present, Edge{v, w})
			}
		}
		if g.NumEdges() != len(present) {
			return false
		}
		for e := range present {
			if !g.HasEdge(e.From, e.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInOutConsistency(t *testing.T) {
	// Property: w ∈ out(v) ⟺ v ∈ in(w) on random graphs.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 60, []string{"a", "b"})
		ok := true
		g.Nodes(func(v NodeID, _ string) bool {
			for _, w := range g.SuccessorsSorted(v) {
				if !slices.Contains(g.PredecessorsSorted(w), v) {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIterationEarlyStop(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.AddNode(NodeID(i), "x")
		if i > 0 {
			g.AddEdge(0, NodeID(i))
		}
	}
	count := 0
	g.Nodes(func(NodeID, string) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Nodes early stop visited %d", count)
	}
	count = 0
	g.Edges(func(Edge) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("Edges early stop visited %d", count)
	}
}

func TestGraphString(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	if g.String() != "graph{|V|=1 |E|=0}" {
		t.Fatalf("String = %q", g.String())
	}
}
