// Package reduction makes the paper's proof machinery executable: the
// ∆-reduction (f, f_i, f_o) from SSRP to RPQ used in the proof of Theorem 1
// (unboundedness of RPQ under unit edge deletions), and the two-chain
// gadget illustrating why no bounded incremental algorithm can exist under
// insertions.
//
// A ∆-reduction maps instances, input updates and output updates between
// two query classes in polynomial time in |ΔG| + |ΔO| and |Q| (Section 3).
// By Lemma 2, a bounded incremental algorithm for the target class would
// induce one for the source class; since SSRP is unbounded under deletions,
// so is RPQ. The tests of this package machine-check the commuting square
// on random instances.
package reduction

import (
	"fmt"

	"incgraph/internal/graph"
	"incgraph/internal/rex"
	"incgraph/internal/rpq"
)

// Alpha1 and Alpha2 are the two labels of the constructed RPQ instance:
// the source node is relabeled Alpha1, every other node Alpha2.
const (
	Alpha1 = "alpha1"
	Alpha2 = "alpha2"
)

// SSRPInstance is an instance of the single-source reachability problem.
type SSRPInstance struct {
	G   *graph.Graph
	Src graph.NodeID
}

// RPQInstance is an instance of the regular path query problem.
type RPQInstance struct {
	G *graph.Graph
	Q *rex.Ast
}

// F is the instance mapping f: it copies the graph, relabels the source
// α1 and every other node α2, and fixes Q = α1·(α2)*. Then v is reachable
// from src in G1 iff (src, v) is a match of Q in G2 — for v = src via the
// single-label path α1, for v ≠ src because every path from src is labeled
// α1 α2 … α2.
func F(in SSRPInstance) (RPQInstance, error) {
	if !in.G.HasNode(in.Src) {
		return RPQInstance{}, fmt.Errorf("reduction: source %d missing", in.Src)
	}
	g2 := graph.New()
	for _, v := range in.G.NodesSorted() {
		if v == in.Src {
			g2.AddNode(v, Alpha1)
		} else {
			g2.AddNode(v, Alpha2)
		}
	}
	in.G.Edges(func(e graph.Edge) bool {
		g2.AddEdge(e.From, e.To)
		return true
	})
	return RPQInstance{G: g2, Q: rex.MustParse("alpha1.alpha2*")}, nil
}

// Fi is the input-update mapping f_i: node identity is preserved by f, so
// an edge update of G1 maps to the same edge update of G2. Labels for
// possibly-new nodes are rewritten to α2 (the source already exists).
func Fi(u graph.Update) graph.Update {
	v := u
	v.FromLabel = Alpha2
	v.ToLabel = Alpha2
	return v
}

// Fo is the output-update mapping f_o: a removed RPQ match (src, v) means
// r(v) flipped to false, an added one means r(v) flipped to true. Matches
// with a different source cannot occur (only the α1 node starts a word of
// L(Q)) and are rejected.
func Fo(src graph.NodeID, d rpq.Delta) (nowReachable, nowUnreachable []graph.NodeID, err error) {
	for _, p := range d.Added {
		if p.Src != src {
			return nil, nil, fmt.Errorf("reduction: unexpected match source %d", p.Src)
		}
		nowReachable = append(nowReachable, p.Dst)
	}
	for _, p := range d.Removed {
		if p.Src != src {
			return nil, nil, fmt.Errorf("reduction: unexpected match source %d", p.Src)
		}
		nowUnreachable = append(nowUnreachable, p.Dst)
	}
	return nowReachable, nowUnreachable, nil
}

// InsertionGadget builds the two-chain instance that drives the paper's
// insertion-unboundedness arguments (the shape of Fig. 9): a chain of n
// α1-nodes (IDs 0..n-1), a chain of n α2-nodes (IDs 100n..100n+n-1), and an
// α3 sink (ID 999999), with query α1·α1*·α2·α2*·α3.
//
// Inserting either BridgeAB (last α1 → first α2) or BridgeBC (last α2 →
// sink) alone changes nothing; inserting both makes every α1-node a match
// source: |ΔG| = 1 with |ΔO| = n, while detecting it requires traversing
// Ω(n) nodes between the two update sites — the contradiction at the heart
// of the proof.
type InsertionGadget struct {
	G        *graph.Graph
	Q        *rex.Ast
	BridgeAB graph.Update
	BridgeBC graph.Update
	N        int
}

// NewInsertionGadget builds the gadget for chain length n ≥ 1.
func NewInsertionGadget(n int) (*InsertionGadget, error) {
	if n < 1 {
		return nil, fmt.Errorf("reduction: gadget needs n ≥ 1, got %d", n)
	}
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "alpha1")
		if i > 0 {
			g.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	base := graph.NodeID(100 * n)
	for i := 0; i < n; i++ {
		g.AddNode(base+graph.NodeID(i), "alpha2")
		if i > 0 {
			g.AddEdge(base+graph.NodeID(i-1), base+graph.NodeID(i))
		}
	}
	sink := graph.NodeID(999999)
	g.AddNode(sink, "alpha3")
	return &InsertionGadget{
		G:        g,
		Q:        rex.MustParse("alpha1.alpha1*.alpha2.alpha2*.alpha3"),
		BridgeAB: graph.Ins(graph.NodeID(n-1), base),
		BridgeBC: graph.Ins(base+graph.NodeID(n-1), sink),
		N:        n,
	}, nil
}
