package kws

import (
	"fmt"
	"slices"

	"incgraph/internal/graph"
)

// This file implements the Remark of Section 4.2: answering KWS queries
// with varying bounds b on one maintained structure. Distances are only
// materialized up to the current bound; when a larger bound b′ arrives,
// propagation resumes from the "breakpoints" — the nodes where it
// previously stopped because the bound was reached — instead of rebuilding.
// The paper stores the breakpoints as a snapshot; we recover them with one
// scan of the kdist lists (the nodes at exactly the old bound), which keeps
// every structure consistent under interleaved updates, then reuses the
// incremental settle machinery with the breakpoints as unit-update seeds.

// ExtendBound raises the query bound to b and resumes distance propagation
// from the old frontier, returning the match-set changes. Bounds can only
// grow; answering a smaller bound needs no work (see MatchRootsWithin).
func (ix *Index) ExtendBound(b int) (Delta, error) {
	if b < ix.q.Bound {
		return Delta{}, fmt.Errorf("kws: cannot shrink bound %d to %d (use MatchRootsWithin)", ix.q.Bound, b)
	}
	if b == ix.q.Bound {
		return Delta{}, nil
	}
	old := ix.q.Bound
	ix.q.Bound = b
	ix.roots = graph.GenCache[[]graph.NodeID]{} // the graph stays, the match set moves
	ix.begin()
	for i, s := range ix.kw {
		// The breakpoints w.r.t. keyword i: nodes whose propagation was cut
		// at exactly the old bound. Everything nearer is final; everything
		// farther is Unreachable and will be discovered from here.
		for x := range ix.ids {
			if ix.at(int32(x), i).Dist == old {
				s.push(int32(x), old)
			}
		}
		ix.settle(i)
	}
	// Every node that gained a finite distance may have become a match.
	return ix.delta(), nil
}

// MatchRootsWithin answers the query under a smaller (or equal) bound b
// using the maintained lists: the roots whose every keyword distance is
// ≤ b. This is the "different b values answered with the same structure"
// capability of the Remark.
func (ix *Index) MatchRootsWithin(b int) ([]graph.NodeID, error) {
	if b > ix.q.Bound {
		return nil, fmt.Errorf("kws: bound %d exceeds maintained bound %d (use ExtendBound first)", b, ix.q.Bound)
	}
	var roots []graph.NodeID
	for x, v := range ix.ids {
		if !slices.ContainsFunc(ix.row(int32(x)), func(e Entry) bool { return e.Dist > b }) {
			roots = append(roots, v)
		}
	}
	slices.Sort(roots)
	return roots, nil
}
