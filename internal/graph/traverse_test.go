package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// chain builds 0 → 1 → … → n-1.
func chain(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), "x")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestBFSDistances(t *testing.T) {
	g := chain(5)
	got := map[NodeID]int{}
	g.BFSFrom([]NodeID{0}, func(v NodeID, d int) bool {
		got[v] = d
		return true
	})
	for i := 0; i < 5; i++ {
		if got[NodeID(i)] != i {
			t.Fatalf("dist(%d) = %d", i, got[NodeID(i)])
		}
	}
}

func TestBFSPrune(t *testing.T) {
	g := chain(5)
	var visited []NodeID
	g.BFSFrom([]NodeID{0}, func(v NodeID, d int) bool {
		visited = append(visited, v)
		return d < 2 // prune below depth 2
	})
	if len(visited) != 3 {
		t.Fatalf("prune failed, visited %v", visited)
	}
}

func TestReverseBFS(t *testing.T) {
	g := chain(4)
	got := map[NodeID]int{}
	g.ReverseBFSFrom([]NodeID{3}, func(v NodeID, d int) bool {
		got[v] = d
		return true
	})
	if got[0] != 3 || got[3] != 0 {
		t.Fatalf("reverse dists: %v", got)
	}
}

func TestReachesAndShortestDist(t *testing.T) {
	g := chain(4)
	if !g.Reaches(0, 3) || g.Reaches(3, 0) {
		t.Fatalf("Reaches wrong on chain")
	}
	if g.Reaches(0, 99) || g.Reaches(99, 0) {
		t.Fatalf("Reaches on missing node")
	}
	if d := g.ShortestDist(0, 3); d != 3 {
		t.Fatalf("ShortestDist = %d", d)
	}
	if d := g.ShortestDist(3, 0); d != -1 {
		t.Fatalf("unreachable ShortestDist = %d", d)
	}
}

// TestBFSFromHubOrder builds a degree-64 hub twice, its edges inserted in
// ascending and in shuffled order: BFSFrom from the hub must visit the
// hub and then its successors in ascending order both times, so a walk
// and an early exit over a hub are the same on every run.
func TestBFSFromHubOrder(t *testing.T) {
	const hub, degree = NodeID(1000), 64
	want := []NodeID{hub}
	ascending := make([]int, degree)
	for i := range ascending {
		ascending[i] = i
		want = append(want, NodeID(i))
	}
	for name, order := range map[string][]int{
		"ascending": ascending,
		"shuffled":  rand.New(rand.NewSource(3)).Perm(degree),
	} {
		g := New()
		g.AddNode(hub, "hub")
		for _, i := range order {
			g.AddNode(NodeID(i), "leaf")
			g.AddEdge(hub, NodeID(i))
		}
		var got []NodeID
		g.BFSFrom([]NodeID{hub}, func(v NodeID, _ int) bool {
			got = append(got, v)
			return true
		})
		if !slices.Equal(got, want) {
			t.Errorf("%s insertion: BFSFrom(hub) visited %v, want %v", name, got, want)
		}
	}
}

func TestNeighborhoodIsUndirected(t *testing.T) {
	// 1 → 2 → 3, seed at 3: hop distances ignore direction.
	g := chain(4) // 0→1→2→3
	nodes := g.NeighborhoodNodes([]NodeID{3}, 2)
	if len(nodes) != 3 {
		t.Fatalf("V_2(3) = %v", nodes)
	}
	if nodes[1] != 2 || nodes[2] != 1 || nodes[3] != 0 {
		t.Fatalf("hop distances wrong: %v", nodes)
	}
}

func TestNeighborhoodMultiSeed(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddNode(NodeID(i), "x")
	}
	g.AddEdge(0, 1)
	g.AddEdge(4, 5)
	nodes := g.NeighborhoodNodes([]NodeID{0, 5}, 1)
	if len(nodes) != 4 {
		t.Fatalf("multi-seed neighborhood: %v", nodes)
	}
	// Missing seeds are ignored.
	nodes = g.NeighborhoodNodes([]NodeID{0, 777}, 1)
	if len(nodes) != 2 {
		t.Fatalf("missing seed not ignored: %v", nodes)
	}
}

func TestUndirectedComponents(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		g.AddNode(NodeID(i), "x")
	}
	g.AddEdge(0, 1)
	g.AddEdge(2, 1) // 0,1,2 weakly connected
	g.AddEdge(3, 4)
	comps := g.UndirectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || len(comps[1]) != 2 {
		t.Fatalf("component membership wrong: %v", comps)
	}
}

func TestNeighborhoodBoundProperty(t *testing.T) {
	// Property: every node in V_d(seed) is within d undirected hops, and
	// V_d grows monotonically with d.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 25, 40, []string{"a"})
		s := NodeID(rng.Intn(25))
		prev := 0
		for d := 0; d <= 4; d++ {
			nodes := g.NeighborhoodNodes([]NodeID{s}, d)
			if len(nodes) < prev {
				return false
			}
			prev = len(nodes)
			for _, dist := range nodes {
				if dist > d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 30, 80, []string{"alpha", "beta", "gamma"})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatalf("round trip lost data")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"n\n",            // bad node line
		"n x y\n",        // bad node id
		"e 1 2\n",        // undeclared nodes
		"n 1 a\ne 1\n",   // bad edge arity
		"n 1 a\ne 1 z\n", // bad edge target
		"z 1 2\n",        // unknown record
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("Read(%q) accepted bad input", c)
		}
	}
	// Comments and blank lines are fine; label-less nodes allowed.
	g, err := Read(bytes.NewBufferString("# hi\n\nn 1\nn 2 b\ne 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || g.Label(1) != "" {
		t.Fatalf("lenient parse wrong: %v", g)
	}
}
