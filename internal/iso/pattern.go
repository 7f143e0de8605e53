// Package iso implements subgraph isomorphism (ISO, Section 2.1 of Fan,
// Hu & Tian, SIGMOD 2017) with the VF2 batch algorithm [15] and the
// localizable incremental algorithm IncISO of the paper's Appendix:
// deletions remove exactly the matches that use a deleted edge (via an
// edge→match inverted index), and insertions re-run VF2 only inside the
// d_Q-neighborhood of the inserted edges, where d_Q is the pattern
// diameter — which is what makes IncISO localizable (Theorem 3).
//
// # Layout
//
// A Pattern is compiled once, when it is made, into index space: pattern
// node u is its position in the ascending node list, and u carries its
// label, its successor and predecessor lists (positions, ascending NodeID,
// a self-loop included — so their lengths are u's degrees) and a self-loop
// flag. The pattern's edges are one list, (From, To) ascending, each with
// its label pair and the search order used when it is anchored on an
// inserted graph edge. The VF2 searcher keeps the partial embedding in two
// k-slices (image and mapped flag per pattern node, k = |V_Q|), so neither
// an enumeration nor an anchored one reads the pattern graph or builds a
// map. The match store is a map from canonical key to embedding plus the
// edge→matches index.
package iso

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"incgraph/internal/graph"
)

// Pattern is a query graph Q = (V_Q, E_Q, l_Q). Patterns must be weakly
// connected (the d_Q-neighborhood localization requires it) and non-empty.
type Pattern struct {
	g *graph.Graph
	// nodes is the canonical (sorted) pattern node order; matches are
	// reported aligned with it, and a pattern node is known by its position
	// in it everywhere else.
	nodes []graph.NodeID
	lbl   []graph.LabelID
	// out[u] and in[u] are u's successors and predecessors, ascending, a
	// self-loop included; loop[u] reports the self-loop.
	out, in [][]int32
	loop    []bool
	// order is the VF2 search order: each node after the first is adjacent
	// (ignoring direction) to an earlier one.
	order []int32
	// edges are the pattern edges, (From, To) ascending.
	edges []patternEdge
	// diameter d_Q: the longest undirected shortest path between pattern
	// nodes.
	diameter int
}

// patternEdge is one pattern edge with its label pair and the search order
// of IncISO's delta enumeration when the edge is anchored on an inserted
// graph edge: the edge's endpoints first.
type patternEdge struct {
	from, to       int32
	fromLbl, toLbl graph.LabelID
	order          []int32
}

// anchors reports whether the edge can be pinned onto inserted graph edge
// u, whose endpoints are labeled lf and lt.
func (pe *patternEdge) anchors(u graph.Update, lf, lt graph.LabelID) bool {
	return pe.fromLbl == lf && pe.toLbl == lt && (pe.from != pe.to || u.From == u.To)
}

// NewPattern validates q and compiles it.
func NewPattern(q *graph.Graph) (*Pattern, error) {
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("iso: empty pattern")
	}
	comps := q.UndirectedComponents()
	if len(comps) != 1 {
		return nil, fmt.Errorf("iso: pattern must be weakly connected (has %d components)", len(comps))
	}
	p := &Pattern{g: q, nodes: q.NodesSorted()}
	k := len(p.nodes)
	p.lbl, p.loop = make([]graph.LabelID, k), make([]bool, k)
	p.out, p.in = make([][]int32, k), make([][]int32, k)
	positions := func(vs []graph.NodeID) []int32 {
		out := make([]int32, len(vs))
		for j, v := range vs {
			out[j], _ = p.pos(v)
		}
		return out
	}
	for u, v := range p.nodes {
		p.lbl[u] = q.LabelIDAt(v)
		p.out[u] = positions(q.SuccessorsSorted(v))
		p.in[u] = positions(q.PredecessorsSorted(v))
		p.loop[u] = q.HasEdge(v, v)
	}
	// The batch order starts from the highest-degree node.
	start := 0
	for u := range p.nodes {
		if len(p.out[u])+len(p.in[u]) > len(p.out[start])+len(p.in[start]) {
			start = u
		}
	}
	p.order = p.greedyOrder([]int32{int32(start)})
	for u, succ := range p.out {
		for _, w := range succ {
			seed := []int32{int32(u)}
			if w != int32(u) {
				seed = append(seed, w)
			}
			p.edges = append(p.edges, patternEdge{
				from: int32(u), to: w, fromLbl: p.lbl[u], toLbl: p.lbl[w], order: p.greedyOrder(seed),
			})
		}
	}
	p.computeDiameter()
	return p, nil
}

// pos returns the position of pattern node v.
func (p *Pattern) pos(v graph.NodeID) (int32, bool) {
	i, ok := slices.BinarySearch(p.nodes, v)
	return int32(i), ok
}

// greedyOrder extends seed to a full most-constrained-first search order:
// next comes the node with the most already-ordered neighbours (counted
// per edge, both directions), the smallest on a tie.
func (p *Pattern) greedyOrder(seed []int32) []int32 {
	placed := make([]bool, len(p.nodes))
	order := make([]int32, 0, len(p.nodes))
	for _, u := range seed {
		placed[u] = true
		order = append(order, u)
	}
	for len(order) < len(p.nodes) {
		best, bestScore := int32(-1), -1
		for v := range p.nodes {
			if placed[v] {
				continue
			}
			score := 0
			for _, w := range slices.Concat(p.out[v], p.in[v]) {
				if placed[w] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = int32(v), score
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order
}

// anchoredOrder is the search order of an enumeration anchored at the
// pattern nodes of seed (ascending): the precomputed order of the pattern
// edge they form, if any, and a greedy extension otherwise.
func (p *Pattern) anchoredOrder(seed []int32) []int32 {
	for _, pe := range p.edges {
		switch {
		case len(seed) == 1 && pe.from == seed[0] && pe.to == seed[0],
			len(seed) == 2 && (pe.from == seed[0] && pe.to == seed[1] || pe.from == seed[1] && pe.to == seed[0]):
			return pe.order
		}
	}
	return p.greedyOrder(seed)
}

// MustPattern is NewPattern panicking on error.
func MustPattern(q *graph.Graph) *Pattern {
	p, err := NewPattern(q)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Pattern) computeDiameter() {
	d := 0
	for _, v := range p.nodes {
		p.g.ForEachWithin([]graph.NodeID{v}, len(p.nodes), func(_ graph.NodeID, dist int) bool {
			if dist > d {
				d = dist
			}
			return true
		})
	}
	p.diameter = d
}

// Graph returns the pattern graph.
func (p *Pattern) Graph() *graph.Graph { return p.g }

// Nodes returns the canonical pattern node order that matches align with.
func (p *Pattern) Nodes() []graph.NodeID { return p.nodes }

// Diameter returns d_Q.
func (p *Pattern) Diameter() int { return p.diameter }

// Size returns (|V_Q|, |E_Q|).
func (p *Pattern) Size() (int, int) { return len(p.nodes), len(p.edges) }

// Match is an embedding h of the pattern: Match[i] = h(Nodes()[i]).
type Match []graph.NodeID

// Key is the canonical identity of a match.
func (m Match) Key() string {
	var b strings.Builder
	for i, v := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	return b.String()
}

// EdgeImages calls fn with the image of every pattern edge.
func (p *Pattern) EdgeImages(m Match, fn func(e graph.Edge)) {
	for _, pe := range p.edges {
		fn(graph.Edge{From: m[pe.from], To: m[pe.to]})
	}
}

// Verify checks that m is a valid embedding of p into g: labels match, the
// mapping is injective and every pattern edge's image is a g-edge.
func (p *Pattern) Verify(g *graph.Graph, m Match) error {
	if len(m) != len(p.nodes) {
		return fmt.Errorf("iso: match arity %d, want %d", len(m), len(p.nodes))
	}
	seen := make(map[graph.NodeID]bool, len(m))
	for i, v := range m {
		if seen[v] {
			return fmt.Errorf("iso: match not injective at %d", v)
		}
		seen[v] = true
		if g.Label(v) != p.g.Label(p.nodes[i]) {
			return fmt.Errorf("iso: label mismatch at %d", v)
		}
	}
	var bad error
	p.EdgeImages(m, func(e graph.Edge) {
		if bad == nil && !g.HasEdge(e.From, e.To) {
			bad = fmt.Errorf("iso: missing edge image (%d,%d)", e.From, e.To)
		}
	})
	return bad
}

// TrianglePattern, PathPattern and StarPattern are convenience constructors
// used by tests.

// PathPattern builds the pattern l0 → l1 → … → lk.
func PathPattern(labels ...string) *Pattern {
	g := graph.New()
	for i, l := range labels {
		g.AddNode(graph.NodeID(i), l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return MustPattern(g)
}

// TrianglePattern builds a directed 3-cycle with the given labels.
func TrianglePattern(a, b, c string) *Pattern {
	g := graph.New()
	g.AddNode(0, a)
	g.AddNode(1, b)
	g.AddNode(2, c)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	return MustPattern(g)
}

// StarPattern builds a center with out-edges to each leaf label.
func StarPattern(center string, leaves ...string) *Pattern {
	g := graph.New()
	g.AddNode(0, center)
	for i, l := range leaves {
		g.AddNode(graph.NodeID(i+1), l)
		g.AddEdge(0, graph.NodeID(i+1))
	}
	return MustPattern(g)
}
