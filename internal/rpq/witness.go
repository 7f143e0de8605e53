package rpq

import (
	"fmt"

	"incgraph/internal/graph"
)

// Witness returns a shortest path (v0 = src, …, vn = dst) whose label
// string is in L(Q), certifying the match (src, dst) — the provenance of an
// RPQ answer. It is reconstructed from the maintained markings by walking
// mpre backwards from an accepting entry — at each step the smallest
// (node, state) among the graph predecessors that carry an entry one
// closer to the seeds — so it costs O(path × in-degree) and stays valid
// across incremental updates. ok is false when (src, dst) is not a match.
func (e *Engine) Witness(src, dst graph.NodeID) ([]graph.NodeID, bool) {
	// Pick the accepting entry at dst with the smallest distance, breaking
	// ties by state for determinism.
	var best *slot
	state := 0
	for _, s := range e.accStates {
		if ent := e.entry(src, dst, s); ent != nil && (best == nil || ent.dist < best.dist) {
			best, state = ent, s
		}
	}
	if best == nil {
		return nil, false
	}
	tab := e.marks[e.idx.Of(src)]
	// Each step decreases dist by one, so the walk takes best.dist steps.
	path := make([]graph.NodeID, best.dist+1)
	w := e.idx.Of(dst)
walk:
	for d := best.dist; ; d-- {
		path[d] = e.ids[w]
		if d == 0 {
			return path, true
		}
		prev := e.nfa.PrevID(state, e.lbl[w])
		for _, x := range e.g.PredecessorsSorted(e.ids[w]) {
			ix := e.idx.Of(x)
			for _, s := range prev {
				if p := tab.get(e.pack(ix, s)); p != nil && p.dist == d-1 {
					w, state = ix, s
					continue walk
				}
			}
		}
		return nil, false // inconsistent marking; cannot happen
	}
}

// VerifyWitness checks that a path certifies a match of the engine's query:
// consecutive edges exist and the label string is in L(Q). Tests and
// auditing use it.
func (e *Engine) VerifyWitness(path []graph.NodeID) error {
	if len(path) == 0 {
		return fmt.Errorf("rpq: empty witness")
	}
	labels := make([]string, len(path))
	for i, v := range path {
		if !e.g.HasNode(v) {
			return fmt.Errorf("rpq: witness node %d missing", v)
		}
		labels[i] = e.g.Label(v)
		if i > 0 && !e.g.HasEdge(path[i-1], v) {
			return fmt.Errorf("rpq: witness edge (%d,%d) missing", path[i-1], v)
		}
	}
	if !e.ast.MatchSeq(labels) {
		return fmt.Errorf("rpq: witness labels %v not in L(%s)", labels, e.ast)
	}
	return nil
}
