package graph

// This file contains the traversal primitives shared by the batch and
// incremental algorithms: directed and undirected BFS, d-hop neighborhoods
// (Section 4.1 of the paper), and reachability probes. Every kernel
// expands a node's adjacency in ascending NodeID order (adjset.go;
// successors before predecessors in the undirected kernels), so a walk
// and any early exit are the same on every run.
//
// All kernels run on buffers from the graph's scratch pool (scratch.go):
// an epoch-stamped visited array over dense node slots and reusable
// queue/stack backing arrays. On a warm graph they allocate nothing beyond
// what their results require, and because every traversal checks out its
// own buffer, any number of kernels may run concurrently between mutations
// (see the concurrency contract in parallel.go).
//
// Contract: traversal callbacks must not mutate the graph. The kernels
// hold node records and a visited array sized at entry, so a callback
// that deletes or adds nodes invalidates state mid-walk (deleted nodes
// are skipped defensively, but added nodes may be missed or overflow the
// visited array). None of the engines mutate during traversal.

import "slices"

// bfsFrom is the shared directed-BFS kernel. rev walks predecessors.
func (g *Graph) bfsFrom(sources []NodeID, rev bool, fn func(v NodeID, dist int) bool) {
	s := g.acquire()
	defer g.release(s)
	for _, src := range sources {
		rec := g.rec(src)
		if rec == nil || s.seen(rec.slot) {
			continue
		}
		s.queue = append(s.queue, qitem{src, 0})
	}
	for head := 0; head < len(s.queue); head++ {
		it := s.queue[head]
		if !fn(it.v, int(it.d)) {
			continue
		}
		rec := g.rec(it.v)
		if rec == nil {
			continue // deleted by the callback; see the contract above
		}
		adj := rec.out
		if rev {
			adj = rec.in
		}
		for _, w := range adj {
			if !s.seen(g.rec(w).slot) {
				s.queue = append(s.queue, qitem{w, it.d + 1})
			}
		}
	}
}

// BFSFrom performs a breadth-first search over directed edges starting at
// the given sources (distance 0). fn is called once per reached node with
// its hop distance; returning false prunes expansion below that node.
func (g *Graph) BFSFrom(sources []NodeID, fn func(v NodeID, dist int) bool) {
	g.bfsFrom(sources, false, fn)
}

// ReverseBFSFrom is BFSFrom following edges backwards (predecessors).
func (g *Graph) ReverseBFSFrom(sources []NodeID, fn func(v NodeID, dist int) bool) {
	g.bfsFrom(sources, true, fn)
}

// Reaches reports whether there is a directed path from v to w. The search
// stops the moment w is dequeued.
func (g *Graph) Reaches(v, w NodeID) bool {
	rec := g.rec(v)
	if rec == nil || !g.HasNode(w) {
		return false
	}
	if v == w {
		return true
	}
	s := g.acquire()
	defer g.release(s)
	s.seen(rec.slot)
	s.stack = append(s.stack, v)
	found := false
	for n := len(s.stack); n > 0 && !found; n = len(s.stack) {
		x := s.stack[n-1]
		s.stack = s.stack[:n-1]
		for _, y := range g.rec(x).out {
			if y == w {
				found = true
				break
			}
			if !s.seen(g.rec(y).slot) {
				s.stack = append(s.stack, y)
			}
		}
	}
	return found
}

// ForEachWithin calls fn for every node within d undirected hops of some
// seed, with its hop distance from the nearest seed, in BFS order (seeds
// first). Seeds not in g are ignored; fn returning false stops the whole
// walk. This is the allocation-free kernel under NeighborhoodNodes.
func (g *Graph) ForEachWithin(seeds []NodeID, d int, fn func(v NodeID, dist int) bool) {
	s := g.acquire()
	defer g.release(s)
	for _, seed := range seeds {
		rec := g.rec(seed)
		if rec == nil || s.seen(rec.slot) {
			continue
		}
		s.queue = append(s.queue, qitem{seed, 0})
	}
	for head := 0; head < len(s.queue); head++ {
		it := s.queue[head]
		if !fn(it.v, int(it.d)) {
			return
		}
		if int(it.d) == d {
			continue
		}
		rec := g.rec(it.v)
		if rec == nil {
			continue // deleted by the callback; see the contract above
		}
		for _, adj := range [2]adjSet{rec.out, rec.in} {
			for _, w := range adj {
				if !s.seen(g.rec(w).slot) {
					s.queue = append(s.queue, qitem{w, it.d + 1})
				}
			}
		}
	}
}

// NeighborhoodNodes returns V_d(seeds): every node within d hops of some
// seed when g is taken as an undirected graph (Section 4.1). Seeds that are
// not in g are ignored. The result maps each reached node to its undirected
// hop distance from the nearest seed.
func (g *Graph) NeighborhoodNodes(seeds []NodeID, d int) map[NodeID]int {
	dist := make(map[NodeID]int, len(seeds))
	g.ForEachWithin(seeds, d, func(v NodeID, dd int) bool {
		dist[v] = dd
		return true
	})
	return dist
}

// ShortestDist returns the hop length of a shortest directed path from v to
// w, or -1 if w is unreachable from v. The BFS stops as soon as w is seen.
func (g *Graph) ShortestDist(v, w NodeID) int {
	rec := g.rec(v)
	if rec == nil || !g.HasNode(w) {
		return -1
	}
	if v == w {
		return 0
	}
	s := g.acquire()
	defer g.release(s)
	s.seen(rec.slot)
	s.queue = append(s.queue, qitem{v, 0})
	res := -1
	for head := 0; head < len(s.queue) && res < 0; head++ {
		it := s.queue[head]
		for _, y := range g.rec(it.v).out {
			if y == w {
				res = int(it.d) + 1
				break
			}
			if !s.seen(g.rec(y).slot) {
				s.queue = append(s.queue, qitem{y, it.d + 1})
			}
		}
	}
	return res
}

// UndirectedComponents returns the weakly connected components of g,
// each as a sorted slice of node IDs, ordered by their smallest member.
func (g *Graph) UndirectedComponents() [][]NodeID {
	s := g.acquire()
	defer g.release(s)
	var comps [][]NodeID
	for _, start := range g.NodesSorted() {
		if s.seen(g.rec(start).slot) {
			continue
		}
		var comp []NodeID
		s.stack = append(s.stack[:0], start)
		for n := len(s.stack); n > 0; n = len(s.stack) {
			v := s.stack[n-1]
			s.stack = s.stack[:n-1]
			comp = append(comp, v)
			rec := g.rec(v)
			for _, adj := range [2]adjSet{rec.out, rec.in} {
				for _, w := range adj {
					if !s.seen(g.rec(w).slot) {
						s.stack = append(s.stack, w)
					}
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}
