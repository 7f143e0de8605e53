package iso

import (
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// This file implements the VF2-style enumerator [15]: depth-first extension
// of a partial embedding along the pattern's connectivity order, with
// label, degree and adjacency-consistency pruning. Matching is non-induced
// on the data side, exactly as the paper defines ISO: the match subgraph
// G_s consists of the images of the pattern's nodes and edges.
//
// Three entry points share the searcher:
//
//   - FindAll / Enumerate: the batch algorithm over the whole graph (or a
//     node scope).
//   - EnumerateAnchored: delta enumeration for IncISO — a pattern edge is
//     pinned onto a newly inserted graph edge, so only embeddings that use
//     that edge are explored. This is what confines insertions to the
//     d_Q-neighborhood of ΔG.

// FindAll enumerates every match of p in g, in no particular order.
// A negative or zero limit means unlimited.
//
// Unlimited whole-graph runs fan VF2 out across g.Parallelism() workers by
// partitioning the candidate images of the first search-order node; the
// concatenated result is in exactly the sequential enumeration order.
// Limited runs stay sequential so the enumeration prefix is deterministic.
func FindAll(g *graph.Graph, p *Pattern, limit int, meter *cost.Meter) []Match {
	if limit <= 0 {
		if workers := g.Parallelism(); workers > 1 {
			return findAllParallel(g, p, workers, meter)
		}
	}
	var out []Match
	Enumerate(g, p, nil, meter, func(m Match) bool {
		out = append(out, m)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// findAllParallel is the multi-core batch enumerator: one VF2 subtree per
// candidate image of the root pattern node, distributed over a worker pool.
// Each worker owns a private searcher and meter; per-candidate result
// buckets are concatenated in candidate (ascending NodeID) order, which is
// the order the sequential searcher would have produced.
func findAllParallel(g *graph.Graph, p *Pattern, workers int, meter *cost.Meter) []Match {
	u0 := p.order[0]
	cands := make([]graph.NodeID, 0, g.NumNodesWithLabelID(p.lbl[u0]))
	g.NodesWithLabelID(p.lbl[u0], func(v graph.NodeID) bool {
		cands = append(cands, v)
		return true
	})
	buckets := make([][]Match, len(cands))
	meters := make([]cost.Meter, workers)
	// One searcher per worker, reused for every candidate it takes.
	searchers := make([]*searcher, workers)
	graph.ParallelFor(workers, len(cands), func(worker, i int) {
		s := searchers[worker]
		if s == nil {
			s = newSearcher(g, p, &meters[worker])
			searchers[worker] = s
		}
		if s.install(u0, cands[i]) {
			s.extend(1)
			s.mapped[u0] = false
		}
		buckets[i], s.out = s.out, nil
	})
	for i := range meters {
		meter.Merge(&meters[i])
	}
	return slices.Concat(buckets...)
}

// Enumerate calls fn for every match of p in g whose image nodes all lie in
// scope (pass nil for the whole graph). Iteration stops when fn returns
// false. Matches are reported aligned with p.Nodes().
func Enumerate(g *graph.Graph, p *Pattern, scope map[graph.NodeID]bool, meter *cost.Meter, fn func(Match) bool) {
	s := newSearcher(g, p, meter)
	s.scope, s.fn = scope, fn
	s.extend(0)
}

// EnumerateAnchored calls fn for every match whose embedding extends the
// given anchor (pattern node → graph node). It returns immediately when the
// anchor itself is infeasible. IncISO anchors each pattern edge on each
// inserted graph edge.
func EnumerateAnchored(g *graph.Graph, p *Pattern, anchor map[graph.NodeID]graph.NodeID, meter *cost.Meter, fn func(Match) bool) {
	seed := make([]int32, 0, len(anchor))
	for u := range anchor {
		i, ok := p.pos(u)
		if !ok {
			return
		}
		seed = append(seed, i)
	}
	slices.Sort(seed)
	s := newSearcher(g, p, meter)
	s.fn, s.order = fn, p.anchoredOrder(seed)
	// Anchored nodes come first in the order; they are installed in it.
	for _, u := range s.order[:len(seed)] {
		if !s.install(u, anchor[p.nodes[u]]) {
			return
		}
	}
	s.extend(len(seed))
}

// searcher carries the state of one enumeration: the partial embedding as
// k-slices over pattern positions.
type searcher struct {
	g     *graph.Graph
	p     *Pattern
	scope map[graph.NodeID]bool
	order []int32
	// core[u] is the image of pattern node u while mapped[u].
	core   []graph.NodeID
	mapped []bool
	meter  *cost.Meter
	// fn receives each match; when nil, matches collect in out.
	fn   func(Match) bool
	out  []Match
	stop bool
}

func newSearcher(g *graph.Graph, p *Pattern, meter *cost.Meter) *searcher {
	k := len(p.nodes)
	return &searcher{g: g, p: p, order: p.order, core: make([]graph.NodeID, k), mapped: make([]bool, k), meter: meter}
}

func (s *searcher) inScope(v graph.NodeID) bool { return s.scope == nil || s.scope[v] }

// used reports whether graph node v is already an image.
func (s *searcher) used(v graph.NodeID) bool {
	for u, ok := range s.mapped {
		if ok && s.core[u] == v {
			return true
		}
	}
	return false
}

// install maps u→v when that is feasible.
func (s *searcher) install(u int32, v graph.NodeID) bool {
	if !s.feasible(u, v) {
		return false
	}
	s.core[u], s.mapped[u] = v, true
	return true
}

// feasible reports whether mapping u→v keeps the partial embedding
// consistent: labels equal, v unused and in scope, and every pattern edge
// between u and an already-mapped node has its image in g.
func (s *searcher) feasible(u int32, v graph.NodeID) bool {
	s.meter.AddNodes(1)
	p := s.p
	if s.used(v) || s.g.LabelIDAt(v) != p.lbl[u] || !s.inScope(v) {
		return false
	}
	if s.g.OutDegree(v) < len(p.out[u]) || s.g.InDegree(v) < len(p.in[u]) {
		return false
	}
	for _, q := range p.out[u] {
		s.meter.AddEdges(1)
		if q != u && s.mapped[q] && !s.g.HasEdge(v, s.core[q]) { // a self-loop is checked below
			return false
		}
	}
	for _, q := range p.in[u] {
		s.meter.AddEdges(1)
		if q != u && s.mapped[q] && !s.g.HasEdge(s.core[q], v) {
			return false
		}
	}
	return !p.loop[u] || s.g.HasEdge(v, v)
}

// candidates yields the possible images of pattern node u given the current
// partial mapping.
func (s *searcher) candidates(u int32, yield func(graph.NodeID) bool) {
	for _, q := range s.p.in[u] {
		if q != u && s.mapped[q] {
			for _, v := range s.g.SuccessorsSorted(s.core[q]) {
				if !yield(v) {
					return
				}
			}
			return
		}
	}
	for _, q := range s.p.out[u] {
		if q != u && s.mapped[q] {
			for _, v := range s.g.PredecessorsSorted(s.core[q]) {
				if !yield(v) {
					return
				}
			}
			return
		}
	}
	if s.scope != nil {
		for v := range s.scope {
			if !yield(v) {
				return
			}
		}
		return
	}
	// No mapped neighbor to anchor on: enumerate u's label class straight
	// off the inverted label index.
	s.g.NodesWithLabelID(s.p.lbl[u], yield)
}

func (s *searcher) extend(depth int) {
	if s.stop {
		return
	}
	if depth == len(s.order) {
		m := Match(slices.Clone(s.core))
		if s.fn == nil {
			s.out = append(s.out, m)
		} else if !s.fn(m) {
			s.stop = true
		}
		return
	}
	u := s.order[depth]
	s.candidates(u, func(v graph.NodeID) bool {
		if s.install(u, v) {
			s.extend(depth + 1)
			s.mapped[u] = false
		}
		return !s.stop
	})
}
