package scc

import (
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/graph"
)

// runKernel runs the kernel over all of g, whose nodes must be 0..n-1 so
// that a node's dense index is its ID.
func runKernel(g *graph.Graph) *tarjan {
	p := new(partition)
	p.init(g, nil)
	return &p.t
}

// edgeType classifies edge (v, w) relative to the DFS forest of the run,
// following Tarjan's taxonomy quoted in Section 5.3 of the paper: the
// classification the maintained num/desc/parent structures encode. Both
// nodes must have been visited.
type edgeType int8

const (
	treeArc      edgeType = iota // leads to a newly discovered node
	frond                        // runs from a descendant to an ancestor
	reverseFrond                 // runs from an ancestor to a descendant
	crossLink                    // runs between unrelated subtrees
)

func (t *tarjan) edgeType(v, w int32) edgeType {
	if t.parent[w] == v {
		return treeArc
	}
	nv, nw := t.num[v], t.num[w]
	switch {
	case nw < nv && nv <= t.desc[w]:
		return frond
	case nv < nw && nw <= t.desc[v]:
		return reverseFrond
	default:
		return crossLink
	}
}

func mkGraph(n int, edges [][2]int64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	for _, e := range edges {
		g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return g
}

func TestTarjanChainAndCycle(t *testing.T) {
	// 0→1→2 plus 2→0 makes one scc; 3→4 are singletons.
	g := mkGraph(5, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("comps = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][2] != 2 {
		t.Fatalf("cycle comp = %v", comps[0])
	}
}

func TestTarjanReverseTopologicalOrder(t *testing.T) {
	// DAG 0→1→2: Tarjan must emit sinks first.
	g := mkGraph(3, [][2]int64{{0, 1}, {1, 2}})
	res := runKernel(g)
	if res.numComps() != 3 {
		t.Fatalf("comps = %v / %v", res.order, res.ends)
	}
	order := map[graph.NodeID]int{}
	for i := 0; i < res.numComps(); i++ {
		order[graph.NodeID(res.comp(i)[0])] = i
	}
	g.Edges(func(e graph.Edge) bool {
		if order[e.From] <= order[e.To] {
			t.Fatalf("edge (%d,%d) violates reverse topological output", e.From, e.To)
		}
		return true
	})
}

func TestTarjanLowlinkCertificate(t *testing.T) {
	// In every multi-node scc, exactly the root has low == num.
	g := mkGraph(6, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}})
	res := runKernel(g)
	for i := 0; i < res.numComps(); i++ {
		comp := res.comp(i)
		if len(comp) == 1 {
			continue
		}
		roots := 0
		for _, v := range comp {
			if res.low[v] == res.num[v] {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("comp %v has %d roots", comp, roots)
		}
	}
}

func TestEdgeClassification(t *testing.T) {
	// A DFS from 0 over 0→1→2 with 2→0 (frond), 0→2 (reverse frond is
	// possible only if 2 discovered via 1), and cross-links between
	// subtrees.
	g := mkGraph(5, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {0, 2}, {0, 3}, {3, 4}, {4, 1}})
	res := runKernel(g) // successors in ascending order: a deterministic DFS
	if tp := res.edgeType(0, 1); tp != treeArc {
		t.Fatalf("(0,1) = %v", tp)
	}
	if tp := res.edgeType(1, 2); tp != treeArc {
		t.Fatalf("(1,2) = %v", tp)
	}
	if tp := res.edgeType(2, 0); tp != frond {
		t.Fatalf("(2,0) = %v", tp)
	}
	if tp := res.edgeType(0, 2); tp != reverseFrond {
		t.Fatalf("(0,2) = %v", tp)
	}
	// 4 is in the subtree rooted at 3, discovered after 1's subtree; (4,1)
	// runs between subtrees.
	if tp := res.edgeType(4, 1); tp != crossLink {
		t.Fatalf("(4,1) = %v", tp)
	}
	// Preorder numbers, subtree extents and parents of that DFS.
	wantNum := []int32{1, 2, 3, 4, 5}
	wantDesc := []int32{5, 3, 3, 5, 5}
	wantParent := []int32{-1, 0, 1, 0, 3}
	if !slices.Equal(res.num[:5], wantNum) || !slices.Equal(res.desc[:5], wantDesc) || !slices.Equal(res.parent[:5], wantParent) {
		t.Fatalf("num %v desc %v parent %v", res.num[:5], res.desc[:5], res.parent[:5])
	}
}

// kosaraju is an independent SCC oracle for property tests.
func kosaraju(g *graph.Graph) [][]graph.NodeID {
	var order []graph.NodeID
	seen := map[graph.NodeID]bool{}
	var dfs1 func(v graph.NodeID)
	dfs1 = func(v graph.NodeID) {
		seen[v] = true
		g.Successors(v, func(w graph.NodeID) bool {
			if !seen[w] {
				dfs1(w)
			}
			return true
		})
		order = append(order, v)
	}
	for _, v := range g.NodesSorted() {
		if !seen[v] {
			dfs1(v)
		}
	}
	compOf := map[graph.NodeID]int{}
	comp := 0
	var comps [][]graph.NodeID
	var dfs2 func(v graph.NodeID)
	dfs2 = func(v graph.NodeID) {
		compOf[v] = comp
		comps[comp] = append(comps[comp], v)
		g.Predecessors(v, func(w graph.NodeID) bool {
			if _, ok := compOf[w]; !ok {
				dfs2(w)
			}
			return true
		})
	}
	for i := len(order) - 1; i >= 0; i-- {
		if _, ok := compOf[order[i]]; !ok {
			comps = append(comps, nil)
			dfs2(order[i])
			comp++
		}
	}
	for _, c := range comps {
		slices.Sort(c)
	}
	sortBySmallest(comps)
	return comps
}

func partitionsEqual(a, b [][]graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestTarjanAgainstKosarajuProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := rng.Intn(3 * n)
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i), "x")
		}
		for i := 0; i < m; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		got := Components(g)
		want := kosaraju(g)
		if !partitionsEqual(got, want) {
			t.Fatalf("seed %d: tarjan %v, kosaraju %v", seed, got, want)
		}
	}
}

func TestTarjanDeepRecursionSafe(t *testing.T) {
	// The iterative implementation must handle paths far deeper than any
	// goroutine stack would allow recursively.
	n := 200000
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g.AddEdge(graph.NodeID(n-1), 0) // one giant cycle
	res := runKernel(g)
	if res.numComps() != 1 || len(res.comp(0)) != n {
		t.Fatalf("giant cycle not one scc: %d comps", res.numComps())
	}
}
