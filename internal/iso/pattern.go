// Package iso implements subgraph isomorphism (ISO, Section 2.1 of Fan,
// Hu & Tian, SIGMOD 2017) with the VF2 batch algorithm [15] and the
// localizable incremental algorithm IncISO of the paper's Appendix:
// deletions remove exactly the matches that use a deleted edge (via an
// edge→match inverted index), and insertions re-run VF2 only inside the
// d_Q-neighborhood of the inserted edges, where d_Q is the pattern
// diameter — which is what makes IncISO localizable (Theorem 3).
package iso

import (
	"fmt"
	"strconv"
	"strings"

	"incgraph/internal/graph"
)

// Pattern is a query graph Q = (V_Q, E_Q, l_Q). Patterns must be weakly
// connected (the d_Q-neighborhood localization requires it) and non-empty.
type Pattern struct {
	g *graph.Graph
	// nodes is the canonical (sorted) pattern node order; matches are
	// reported aligned with it.
	nodes []graph.NodeID
	// idx maps a pattern node to its position in nodes.
	idx map[graph.NodeID]int
	// order is the VF2 search order: each node after the first is adjacent
	// (ignoring direction) to an earlier one.
	order []graph.NodeID
	// edgeOrders precomputes, per pattern edge, the search order used when
	// that edge is anchored on an inserted graph edge (IncISO's delta
	// enumeration); the edge endpoints come first.
	edgeOrders map[graph.Edge][]graph.NodeID
	// diameter d_Q: the longest undirected shortest path between pattern
	// nodes.
	diameter int
}

// NewPattern validates q and prepares the search structures.
func NewPattern(q *graph.Graph) (*Pattern, error) {
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("iso: empty pattern")
	}
	comps := q.UndirectedComponents()
	if len(comps) != 1 {
		return nil, fmt.Errorf("iso: pattern must be weakly connected (has %d components)", len(comps))
	}
	p := &Pattern{g: q, nodes: q.NodesSorted(), idx: make(map[graph.NodeID]int)}
	for i, v := range p.nodes {
		p.idx[v] = i
	}
	p.computeOrder()
	p.computeDiameter()
	// Parallel enumerators read the pattern graph from many goroutines;
	// flush its lazily sorted caches once, up front.
	q.PrepareConcurrentReads()
	p.edgeOrders = make(map[graph.Edge][]graph.NodeID, q.NumEdges())
	q.Edges(func(e graph.Edge) bool {
		seed := []graph.NodeID{e.From}
		if e.To != e.From {
			seed = append(seed, e.To)
		}
		p.edgeOrders[e] = p.greedyOrder(seed)
		return true
	})
	return p, nil
}

// greedyOrder extends seed to a full most-constrained-first search order.
func (p *Pattern) greedyOrder(seed []graph.NodeID) []graph.NodeID {
	placed := make(map[graph.NodeID]bool, len(p.nodes))
	order := make([]graph.NodeID, 0, len(p.nodes))
	for _, v := range seed {
		placed[v] = true
		order = append(order, v)
	}
	for len(order) < len(p.nodes) {
		best := graph.NodeID(-1)
		bestScore := -1
		for _, v := range p.nodes {
			if placed[v] {
				continue
			}
			score := 0
			count := func(w graph.NodeID) bool {
				if placed[w] {
					score++
				}
				return true
			}
			p.g.Successors(v, count)
			p.g.Predecessors(v, count)
			if score > bestScore || score == bestScore && (best == -1 || v < best) {
				best, bestScore = v, score
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order
}

// MustPattern is NewPattern panicking on error.
func MustPattern(q *graph.Graph) *Pattern {
	p, err := NewPattern(q)
	if err != nil {
		panic(err)
	}
	return p
}

// computeOrder picks a connectivity-preserving search order, starting from
// the highest-degree node and greedily preferring nodes with the most
// already-ordered neighbors (most constrained first).
func (p *Pattern) computeOrder() {
	q := p.g
	degree := func(v graph.NodeID) int { return q.OutDegree(v) + q.InDegree(v) }
	start := p.nodes[0]
	for _, v := range p.nodes {
		if degree(v) > degree(start) {
			start = v
		}
	}
	placed := map[graph.NodeID]bool{start: true}
	p.order = []graph.NodeID{start}
	for len(p.order) < len(p.nodes) {
		best := graph.NodeID(-1)
		bestScore := -1
		for _, v := range p.nodes {
			if placed[v] {
				continue
			}
			score := 0
			count := func(w graph.NodeID) bool {
				if placed[w] {
					score++
				}
				return true
			}
			q.Successors(v, count)
			q.Predecessors(v, count)
			if score > bestScore || score == bestScore && (best == -1 || v < best) {
				best, bestScore = v, score
			}
		}
		placed[best] = true
		p.order = append(p.order, best)
	}
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
func (p *Pattern) Size() (int, int) { return p.g.NumNodes(), p.g.NumEdges() }

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

// ImageOf returns h(u) for pattern node u.
func (p *Pattern) ImageOf(m Match, u graph.NodeID) graph.NodeID {
	return m[p.idx[u]]
}

// EdgeImages calls fn with the image of every pattern edge.
func (p *Pattern) EdgeImages(m Match, fn func(e graph.Edge)) {
	p.g.Edges(func(e graph.Edge) bool {
		fn(graph.Edge{From: m[p.idx[e.From]], To: m[p.idx[e.To]]})
		return true
	})
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
