package kws

import (
	"cmp"
	"fmt"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// This file implements the incremental side of KWS:
//
//   - IncKWS+  (ApplyInsert)  — Fig. 1: decrease-only BFS propagation.
//   - IncKWS−  (ApplyDelete)  — Fig. 3: two phases, identify affected
//     entries by walking next-pointers backwards, then settle exact values
//     with a priority queue.
//   - IncKWS   (Repair)       — batch updates in three phases sharing one
//     global priority queue per keyword, so every affected entry's final
//     distance is decided at most once. Apply is Repair for an index that
//     owns its graph: it advances the graph first.
//   - IncKWSn  (ApplyUnitwise)— the unit-at-a-time baseline of the paper's
//     experiments.
//
// The Apply* methods mutate the underlying graph and the index together;
// Repair takes the graph as already moved and touches the index alone. All
// return the Delta of the match set.

// Delta describes changes ΔO to the output Q(G).
type Delta struct {
	// Added lists new match roots with their distance vectors.
	Added []Match
	// Removed lists roots whose match disappeared.
	Removed []graph.NodeID
	// Updated lists roots that remain matches with changed distances.
	Updated []Match
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Updated) == 0
}

// sortByRoot puts the delta into its canonical order (roots ascending in
// every class). Both the incremental repair and the batch-fallback path
// emit through it, so their deltas stay comparable.
func (d *Delta) sortByRoot() {
	byRoot := func(a, b Match) int { return cmp.Compare(a.Root, b.Root) }
	slices.SortFunc(d.Added, byRoot)
	slices.SortFunc(d.Updated, byRoot)
	slices.Sort(d.Removed)
}

// begin starts a repair: no row is listed as touched yet.
func (ix *Index) begin() {
	ix.rowMarks.clear()
	ix.rows = ix.rows[:0]
	for _, s := range ix.kw {
		s.touched.clear()
		s.touchedList = s.touchedList[:0]
	}
}

// touchRow lists row x among the rows ΔO is diffed from.
func (ix *Index) touchRow(x int32) {
	if ix.rowMarks.add(x) {
		ix.rows = append(ix.rows, x)
	}
}

// delta ends a repair: it drains the keywords' meters and diffs every
// touched row against the match set, which no keyword pass wrote, updating
// the match set as it goes.
func (ix *Index) delta() Delta {
	for _, s := range ix.kw {
		for _, x := range s.touchedList {
			ix.touchRow(x)
		}
		ix.meter.Merge(&s.meter)
		s.meter.Reset()
	}
	var d Delta
	for _, x := range ix.rows {
		v, row := ix.ids[x], ix.row(x)
		old, was := ix.matches[v]
		switch is := ix.isMatch(row); {
		case is && !was:
			ix.matches[v] = dists(row)
			d.Added = append(d.Added, Match{Root: v, Dists: dists(row)})
		case was && !is:
			delete(ix.matches, v)
			d.Removed = append(d.Removed, v)
		case is && !sameDists(old, row):
			for i, e := range row {
				old[i] = e.Dist
			}
			d.Updated = append(d.Updated, Match{Root: v, Dists: dists(row)})
		}
	}
	d.sortByRoot()
	return d
}

func sameDists(ds []int, row []Entry) bool {
	for i, e := range row {
		if ds[i] != e.Dist {
			return false
		}
	}
	return true
}

// ApplyInsert applies a unit edge insertion with IncKWS+ (Fig. 1). The edge
// must not exist yet; missing endpoints are created from the update labels.
func (ix *Index) ApplyInsert(u graph.Update) (Delta, error) {
	if u.Op != graph.Insert {
		return Delta{}, fmt.Errorf("kws: ApplyInsert got %v", u)
	}
	return ix.ApplyUnitwise(graph.Batch{u})
}

// ApplyDelete applies a unit edge deletion with IncKWS− (Fig. 3).
func (ix *Index) ApplyDelete(u graph.Update) (Delta, error) {
	if u.Op != graph.Delete {
		return Delta{}, fmt.Errorf("kws: ApplyDelete got %v", u)
	}
	return ix.ApplyUnitwise(graph.Batch{u})
}

// insertKeyword is IncKWS+ lines 1–8 for a single keyword: if (v,w) creates
// a shorter path from v to keyword i, update kdist(v) and propagate the
// decrease to ancestors with a FIFO queue.
func (ix *Index) insertKeyword(i int, v, w graph.NodeID) {
	s, b := ix.kw[i], ix.q.Bound
	iv := ix.idx.Of(v)
	wd, ve := ix.at(ix.idx.Of(w), i).Dist, ix.at(iv, i)
	s.meter.AddEntries(1)
	if wd+1 >= ve.Dist || wd+1 > b {
		return
	}
	s.touch(iv)
	*ve = Entry{Dist: wd + 1, Next: w}
	queue := append(s.fifo[:0], iv)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		s.meter.AddNodes(1)
		xd := ix.at(x, i).Dist
		if xd >= b {
			continue // propagation cannot improve beyond the bound
		}
		for _, p := range ix.g.PredecessorsSorted(ix.ids[x]) {
			s.meter.AddEdges(1)
			ip := ix.idx.Of(p)
			if pe := ix.at(ip, i); xd+1 < pe.Dist {
				s.touch(ip)
				*pe = Entry{Dist: xd + 1, Next: ix.ids[x]}
				s.meter.AddEntries(1)
				queue = append(queue, ip)
			}
		}
	}
	s.fifo = queue
}

// identifyAffected is IncKWS− lines 1–6 generalized to the deletions of
// norm: every node whose chosen shortest path to keyword i ran through a
// deleted edge, transitively along next pointers, is marked affected.
func (ix *Index) identifyAffected(i int, norm graph.Batch) {
	s, b := ix.kw[i], ix.q.Bound
	s.aff.clear()
	s.affList = s.affList[:0]
	// affect marks x affected when its shortest path to keyword i starts
	// with the edge to next. A keyword node (dist 0) has no such edge.
	affect := func(x int32, next graph.NodeID) {
		if e := ix.at(x, i); e.Next == next && 0 < e.Dist && e.Dist <= b && s.aff.add(x) {
			s.affList = append(s.affList, x)
		}
	}
	for _, u := range norm {
		if u.Op == graph.Delete {
			affect(ix.idx.Of(u.From), u.To)
		}
	}
	for j := 0; j < len(s.affList); j++ {
		v := ix.ids[s.affList[j]]
		s.meter.AddNodes(1)
		for _, p := range ix.g.PredecessorsSorted(v) {
			s.meter.AddEdges(1)
			affect(ix.idx.Of(p), v)
		}
	}
}

// computePotentials is IncKWS− lines 7–9: each affected node gets a
// tentative distance computed from its unaffected successors — the first
// minimum in ascending NodeID order — and is queued for the settle phase
// when within bound.
func (ix *Index) computePotentials(i int) {
	s, b := ix.kw[i], ix.q.Bound
	for _, x := range s.affList {
		s.touch(x)
		best := unreachable
		for _, y := range ix.g.SuccessorsSorted(ix.ids[x]) {
			s.meter.AddEdges(1)
			iy := ix.idx.Of(y)
			if s.aff.has(iy) {
				continue
			}
			if d := ix.at(iy, i).Dist + 1; d < best.Dist {
				best = Entry{Dist: d, Next: y}
			}
		}
		if best.Dist > b {
			best = unreachable
		}
		*ix.at(x, i) = best
		s.meter.AddEntries(1)
		if best.Dist <= b {
			s.push(x, best.Dist)
		}
	}
}

// settle is IncKWS− lines 10–14: Dijkstra-style settling of exact values in
// monotonically increasing distance order, relaxing predecessors within the
// bound.
func (ix *Index) settle(i int) {
	s, b := ix.kw[i], ix.q.Bound
	for {
		x, d, ok := s.q.pop()
		if !ok {
			return
		}
		if d != ix.at(x, i).Dist {
			continue // superseded by a later decrease
		}
		s.meter.AddNodes(1)
		s.meter.AddHeapOps(1)
		if d >= b {
			continue // cannot relax anyone within the bound
		}
		v := ix.ids[x]
		for _, p := range ix.g.PredecessorsSorted(v) {
			s.meter.AddEdges(1)
			ip := ix.idx.Of(p)
			if pe := ix.at(ip, i); d+1 < pe.Dist {
				s.touch(ip)
				*pe = Entry{Dist: d + 1, Next: v}
				s.meter.AddEntries(1)
				s.push(ip, d+1)
			}
		}
	}
}

// Apply processes a batch update ΔG with the three-phase IncKWS algorithm
// on an index that owns its graph: it advances the graph to G ⊕ ΔG
// (graph.Advance: the batch is normalized, late updates win; updates must
// be valid against the current graph in sequence order; a batch that cannot
// be applied is rejected before anything is touched) and then repairs.
func (ix *Index) Apply(batch graph.Batch) (Delta, error) {
	norm, err := ix.g.Advance(batch)
	if err != nil {
		return Delta{}, fmt.Errorf("kws: %w", err)
	}
	return ix.Repair(batch, norm), nil
}

// Repair brings kdist and the match set from G to G ⊕ ΔG and returns ΔO.
// It assumes the graph was G when the index last returned and has just
// been moved to G ⊕ ΔG by whoever owns it — Apply, or a store that keeps
// one graph under several engines — with batch valid on G and norm its
// normal form (batch.Normalize()). Every phase already reasons from the
// post-state graph, so nothing here mutates it.
//
// Before repairing, Repair consults the cost model (cost.EstimateKWS): when
// the predicted affected area makes the incremental repair costlier than
// the BLINKS batch build — IncKWS loses that race once |ΔG| grows past
// roughly a fifth of |E| — it rebuilds kdist from scratch instead, diffing
// the match sets for the exact same Delta. The decision is a pure function
// of graph and batch statistics, so it is identical at every worker and
// shard count.
func (ix *Index) Repair(batch, norm graph.Batch) Delta {
	// Estimate on the normalized view: cancelled insert/delete pairs cost
	// the repair path nothing, so they must not push the model toward a
	// full rebuild.
	insN, delsN := 0, 0
	for _, u := range norm {
		if u.Op == graph.Insert {
			insN++
		} else {
			delsN++
		}
	}
	// The shard footprint is observability only; skip its map-and-sort on
	// the tiny-batch hot path the floor always routes incremental.
	shardsTouched := 0
	if len(norm) >= cost.FallbackMinBatch {
		shardsTouched = len(norm.TouchedShards(ix.g))
	}
	// The model is fed G's size, not G ⊕ ΔG's: kdist still has one row per
	// node of G, and a valid normalized batch moves |E| by its own counts.
	ix.lastEst = cost.EstimateKWS(len(ix.ids), ix.g.NumEdges()-insN+delsN, insN, delsN,
		ix.q.Bound, len(ix.q.Keywords), shardsTouched)
	if ix.lastEst.PreferBatch() {
		return ix.rebuildDiff()
	}
	ix.begin()
	// Nodes the batch created are the endpoints without a row. Creation is
	// a side effect of insertions even when the edge is later cancelled by
	// a deletion, so the raw batch is scanned.
	for _, u := range batch {
		if u.Op == graph.Insert {
			ix.ensureRow(u.From)
			ix.ensureRow(u.To)
		}
	}
	// The per-keyword repairs are independent (keyword i reads the shared
	// graph and writes only column i of kdist and its own scratch), so they
	// fan out across workers; the result is identical to the sequential
	// loop.
	graph.ParallelFor(ix.g.Parallelism(), len(ix.kw), func(_, i int) { ix.repairKeyword(i, norm) })
	return ix.delta()
}

// repairKeyword runs the three phases of IncKWS for one keyword: affected
// identification over ΔG−, potentials, insertion seeding over ΔG+, and the
// shared-queue settle.
func (ix *Index) repairKeyword(i int, norm graph.Batch) {
	s, b := ix.kw[i], ix.q.Bound
	// Phase (a): affected entries w.r.t. keyword i due to ΔG−, with
	// potential values, all in one global queue q_i.
	ix.identifyAffected(i, norm)
	ix.computePotentials(i)
	// Phase (b): insertions between unaffected endpoints seed the queue
	// instead of propagating directly, interleaving with deletions.
	for _, u := range norm {
		if u.Op != graph.Insert {
			continue
		}
		iv, iw := ix.idx.Of(u.From), ix.idx.Of(u.To)
		if s.aff.has(iv) || s.aff.has(iw) {
			continue
		}
		wd, ve := ix.at(iw, i).Dist, ix.at(iv, i)
		s.meter.AddEntries(1)
		if wd+1 < ve.Dist && wd+1 <= b {
			s.touch(iv)
			*ve = Entry{Dist: wd + 1, Next: u.To}
			s.push(iv, wd+1)
		}
	}
	// Phase (c): settle exact values once per affected entry.
	ix.settle(i)
}

// rebuildDiff is the batch-fallback path of Repair: with the graph at
// G ⊕ ΔG, rebuild kdist and the match set from scratch with the batch
// algorithm, and derive the Delta by diffing the old match set against the
// new one — the exact output change, same as the repair path.
func (ix *Index) rebuildDiff() Delta {
	old := ix.matches
	fresh := build(ix.g, ix.q, ix.meter)
	ix.ids, ix.idx, ix.kdist, ix.matches = fresh.ids, fresh.idx, fresh.kdist, fresh.matches
	var d Delta
	for r, ds := range ix.matches {
		pre, was := old[r]
		switch {
		case !was:
			d.Added = append(d.Added, Match{Root: r, Dists: slices.Clone(ds)})
		case !slices.Equal(pre, ds):
			d.Updated = append(d.Updated, Match{Root: r, Dists: slices.Clone(ds)})
		}
	}
	for r := range old {
		if _, is := ix.matches[r]; !is {
			d.Removed = append(d.Removed, r)
		}
	}
	d.sortByRoot()
	return d
}

// LastEstimate returns the cost-model verdict of the most recent repair:
// the predicted |AFF|, the repair-vs-batch costs, and the shard footprint
// of the batch. Benchmarks and tests use it to observe routing.
func (ix *Index) LastEstimate() cost.Estimate { return ix.lastEst }

// ApplyUnitwise is IncKWSn: it processes the batch one unit update at a
// time using the unit algorithms, the baseline the paper compares IncKWS
// against. Matches are diffed once, at the end.
func (ix *Index) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	ix.begin()
	for _, u := range batch {
		if err := ix.g.Apply(u); err != nil {
			return Delta{}, err
		}
		if u.Op == graph.Insert {
			ix.ensureRow(u.From)
			ix.ensureRow(u.To)
			for i := range ix.kw {
				ix.insertKeyword(i, u.From, u.To)
			}
			continue
		}
		// IncKWS− is the three phases of IncKWS with nothing to seed.
		for i := range ix.kw {
			ix.repairKeyword(i, graph.Batch{u})
		}
	}
	return ix.delta(), nil
}
