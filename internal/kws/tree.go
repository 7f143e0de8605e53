package kws

import (
	"fmt"
	"slices"

	"incgraph/internal/graph"
)

// Tree is a materialized match T(r, p1,…,pm): for each keyword, the chosen
// shortest path from the root to the matching node, reconstructed from the
// next pointers of kdist(·). Paths[i][0] is always Root and the last node
// of Paths[i] is labeled Keywords[i].
type Tree struct {
	Root  graph.NodeID
	Paths [][]graph.NodeID
}

// MatchTree materializes the match rooted at r by following next pointers,
// or returns false when r is not a match root.
func (ix *Index) MatchTree(r graph.NodeID) (Tree, bool) {
	if _, ok := ix.matches[r]; !ok {
		return Tree{}, false
	}
	tr := Tree{Root: r, Paths: make([][]graph.NodeID, len(ix.q.Keywords))}
	for i := range ix.q.Keywords {
		path := []graph.NodeID{r}
		for e := ix.Entry(r, i); e.Dist > 0; e = ix.Entry(e.Next, i) {
			path = append(path, e.Next)
		}
		tr.Paths[i] = path
	}
	return tr, true
}

// Edges returns the distinct edges of the tree.
func (tr Tree) Edges() []graph.Edge {
	seen := make(map[graph.Edge]bool)
	var es []graph.Edge
	for _, p := range tr.Paths {
		for i := 0; i+1 < len(p); i++ {
			e := graph.Edge{From: p[i], To: p[i+1]}
			if !seen[e] {
				seen[e] = true
				es = append(es, e)
			}
		}
	}
	return es
}

// Check validates the index against its defining invariants. It is used by
// tests and available to callers as a consistency audit. It verifies, for
// every node and keyword:
//
//  1. dist is 0 iff the node carries the keyword label;
//  2. dist ≤ bound or dist == Unreachable;
//  3. when 0 < dist ≤ bound, the next pointer is a graph successor with
//     dist exactly one smaller (so next chains terminate at the keyword);
//  4. dist equals the true bounded shortest distance (recomputed);
//  5. the match set is exactly the set of nodes with all dists ≤ bound.
//
// It also audits the layout: one row per graph node, found through the
// dense index.
func (ix *Index) Check() error {
	fresh, err := Build(ix.g.Clone(), ix.q, nil)
	if err != nil {
		return err
	}
	truth := fresh.matches
	if len(ix.ids) != ix.g.NumNodes() || len(ix.kdist) != len(ix.ids)*len(ix.kw) {
		return fmt.Errorf("kws: %d rows (%d entries) for %d nodes", len(ix.ids), len(ix.kdist), ix.g.NumNodes())
	}
	var fail error
	ix.g.Nodes(func(v graph.NodeID, lbl string) bool {
		x, ok := ix.idx.Get(v)
		if !ok || ix.ids[x] != v {
			fail = fmt.Errorf("kws: node %d missing kdist row", v)
			return false
		}
		for i, kw := range ix.q.Keywords {
			e := *ix.at(x, i)
			if (e.Dist == 0) != (lbl == kw) {
				fail = fmt.Errorf("kws: node %d kw %q: dist 0 iff label, got dist=%d label=%q", v, kw, e.Dist, lbl)
				return false
			}
			if e.Dist != Unreachable && e.Dist > ix.q.Bound {
				fail = fmt.Errorf("kws: node %d kw %q: dist %d exceeds bound", v, kw, e.Dist)
				return false
			}
			if e.Dist > 0 && e.Dist <= ix.q.Bound {
				if !ix.g.HasEdge(v, e.Next) {
					fail = fmt.Errorf("kws: node %d kw %q: next %d is not a successor", v, kw, e.Next)
					return false
				}
				if nd := ix.Entry(e.Next, i).Dist; nd != e.Dist-1 {
					fail = fmt.Errorf("kws: node %d kw %q: next %d has dist %d, want %d", v, kw, e.Next, nd, e.Dist-1)
					return false
				}
			}
			if e.Dist == Unreachable && e.Next != NoNext {
				fail = fmt.Errorf("kws: node %d kw %q: unreachable with next pointer", v, kw)
				return false
			}
			if want := fresh.Entry(v, i).Dist; e.Dist != want {
				fail = fmt.Errorf("kws: node %d kw %q: dist %d, batch recompute says %d", v, kw, e.Dist, want)
				return false
			}
		}
		return true
	})
	if fail != nil {
		return fail
	}
	// Distances and matches must agree with a fresh batch run.
	if len(truth) != len(ix.matches) {
		return fmt.Errorf("kws: match count %d, batch recompute has %d", len(ix.matches), len(truth))
	}
	for r, want := range truth {
		got, ok := ix.matches[r]
		if !ok {
			return fmt.Errorf("kws: missing match root %d", r)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("kws: root %d dists %v, batch says %v", r, got, want)
		}
	}
	return nil
}
