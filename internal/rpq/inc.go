package rpq

import (
	"fmt"
	"slices"

	"incgraph/internal/graph"
)

// This file implements IncRPQ (Fig. 5) and the unit-at-a-time baseline
// IncRPQn.

// Delta describes changes ΔO to Q(G), each side sorted by (Src, Dst).
type Delta struct {
	Added   []Pair
	Removed []Pair
}

// Counts returns the numbers of pairs added and removed; none is updated.
func (d Delta) Counts() (added, removed, updated int) { return len(d.Added), len(d.Removed), 0 }

// Len returns |ΔO| in rows.
func (d Delta) Len() int { return len(d.Removed) + len(d.Added) }

// Each calls yield with the row [src dst] of every removed pair as gone,
// then of every added one. The rows lie in one array made per call.
func (d Delta) Each(yield func(row []graph.NodeID, gone bool)) {
	arena := make([]graph.NodeID, 0, 2*d.Len())
	for i, ps := range [][]Pair{d.Removed, d.Added} {
		for _, p := range ps {
			arena = append(arena, p.Src, p.Dst)
			yield(arena[len(arena)-2:len(arena):len(arena)], i == 0)
		}
	}
}

func compareEdges(a, b graph.Edge) int {
	return comparePairs(Pair{a.From, a.To}, Pair{b.From, b.To})
}

// Apply processes a batch ΔG with IncRPQ on an engine that owns its graph:
// it advances the graph to G ⊕ ΔG (graph.Advance: the batch is normalized,
// node creation side effects of cancelled insertions are preserved, and a
// batch that cannot be applied is rejected before anything is touched) and
// then repairs.
func (e *Engine) Apply(batch graph.Batch) (Delta, error) {
	norm, err := e.g.Advance(batch)
	if err != nil {
		return Delta{}, fmt.Errorf("rpq: %w", err)
	}
	return e.Repair(batch, norm), nil
}

// Repair brings the markings from G to G ⊕ ΔG and returns ΔO. It assumes
// the graph was G when the engine last returned and has just been moved to
// G ⊕ ΔG by whoever owns it — Apply, or a store that keeps one graph under
// several engines — with batch valid on G and norm its normal form
// (batch.Normalize()). The repair reads the post-state graph and reasons
// about the pre-state through e.ins; it mutates nothing but the engine.
func (e *Engine) Repair(batch, norm graph.Batch) Delta {
	e.ins = e.ins[:0]
	for _, u := range norm {
		if u.Op == graph.Insert {
			e.ins = append(e.ins, u.Edge())
		}
	}
	slices.SortFunc(e.ins, compareEdges)
	// New nodes (they may be new sources) are the endpoints the dense index
	// does not know; they join it in the order the batch created them, and
	// each is built below.
	firstNew := int32(len(e.ids))
	for _, u := range batch {
		if u.Op != graph.Insert {
			continue
		}
		if _, ok := e.idx.Get(u.From); !ok {
			e.addNode(u.From)
		}
		if _, ok := e.idx.Get(u.To); !ok {
			e.addNode(u.To)
		}
	}
	// Route each update to the sources whose markings it can touch, via
	// the inverted index: an update on edge (v, w) is relevant to source u
	// only if u has an entry at v (deletion support / insertion
	// relaxation) — sources without one cannot be affected. A route packs
	// (source, position in the batch); sorted, each source's updates are
	// one run, in batch order.
	e.routes = e.routes[:0]
	for j, u := range norm {
		for _, src := range e.srcAt[e.idx.Of(u.From)] {
			e.routes = append(e.routes, uint64(src)<<32|uint64(j))
		}
	}
	slices.Sort(e.routes)
	for lo := 0; lo < len(e.routes); {
		hi := lo + 1
		for hi < len(e.routes) && e.routes[hi]>>32 == e.routes[lo]>>32 {
			hi++
		}
		e.tasks = append(e.tasks, task{src: int32(e.routes[lo] >> 32), lo: int32(lo), hi: int32(hi)})
		lo = hi
	}
	// A brand-new node cannot already be a routed source (it had no
	// entries when the updates were routed), so the two task kinds are
	// disjoint. The full product BFS of a new source is part of AFF — data
	// newly inspected.
	for i := firstNew; i < int32(len(e.ids)); i++ {
		if e.isSource(i) {
			e.tasks = append(e.tasks, task{src: i})
		}
	}
	// Each source's repair touches only its own marking table, so the
	// repairs fan out across workers against the read-shared graph. Global
	// effects are logged per worker and merged serially; the merged engine
	// and the sorted delta are identical to the sequential loop.
	var d Delta
	e.runTasks(e.g.Parallelism(), norm)
	e.mergeTasks(&d)
	slices.SortFunc(d.Added, comparePairs)
	slices.SortFunc(d.Removed, comparePairs)
	return d
}

// addNode appends a node the graph just created to the dense index.
func (e *Engine) addNode(v graph.NodeID) {
	e.idx.Add(v, int32(len(e.ids)))
	e.ids = append(e.ids, v)
	e.lbl = append(e.lbl, e.g.LabelIDAt(v))
	e.marks = append(e.marks, nil)
	e.srcAt = append(e.srcAt, nil)
}

// inserted reports whether the batch under repair inserted edge (v, w).
func (e *Engine) inserted(v, w graph.NodeID) bool {
	if len(e.ins) == 0 {
		return false
	}
	_, found := slices.BinarySearchFunc(e.ins, graph.Edge{From: v, To: w}, compareEdges)
	return found
}

// ApplyUnitwise is IncRPQn: the batch is processed one unit update at a
// time.
func (e *Engine) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	// The unit deltas in order, one signed step per pair and unit.
	type step struct {
		p     Pair
		added bool
	}
	var steps []step
	for _, u := range batch {
		d, err := e.Apply(graph.Batch{u})
		if err != nil {
			return Delta{}, err
		}
		for _, p := range d.Added {
			steps = append(steps, step{p, true})
		}
		for _, p := range d.Removed {
			steps = append(steps, step{p, false})
		}
	}
	// The steps of one pair alternate, so the pair moved (the way of its
	// first step) iff their number is odd; an even number was transient.
	slices.SortStableFunc(steps, func(a, b step) int { return comparePairs(a.p, b.p) })
	var total Delta
	for lo := 0; lo < len(steps); {
		hi := lo + 1
		for hi < len(steps) && steps[hi].p == steps[lo].p {
			hi++
		}
		if (hi-lo)%2 == 1 {
			if steps[lo].added {
				total.Added = append(total.Added, steps[lo].p)
			} else {
				total.Removed = append(total.Removed, steps[lo].p)
			}
		}
		lo = hi
	}
	return total, nil
}

// ApplyInsert processes one unit insertion.
func (e *Engine) ApplyInsert(u graph.Update) (Delta, error) {
	if u.Op != graph.Insert {
		return Delta{}, fmt.Errorf("rpq: ApplyInsert got %v", u)
	}
	return e.Apply(graph.Batch{u})
}

// ApplyDelete processes one unit deletion.
func (e *Engine) ApplyDelete(u graph.Update) (Delta, error) {
	if u.Op != graph.Delete {
		return Delta{}, fmt.Errorf("rpq: ApplyDelete got %v", u)
	}
	return e.Apply(graph.Batch{u})
}

// repair fixes the marking table of source r.src after the updates routed
// to it: identAff (Fig. 5 line 1), potentials (lines 2–4), insertion
// seeding (lines 5–8), settle (line 9) and removal of unreachable entries.
// It runs concurrently with other sources' repairs: everything it writes is
// source-local or worker-local (see srcRepair).
func (r *srcRepair) repair(batch graph.Batch, routes []uint64) {
	e, tab := r.e, r.tab
	r.identAff(batch, routes)
	// Potentials from unaffected cpre members (Fig. 5 lines 2–4). Nothing
	// is inserted into the table before seeding, so ent stays valid.
	for _, k := range r.aff {
		ent := tab.get(k)
		w, s2 := e.nodeOf(k), e.stateOf(k)
		prev := e.nfa.PrevID(s2, e.lbl[w])
		best, n := unreachable, int32(0)
		for _, x := range e.g.PredecessorsSorted(e.ids[w]) {
			ix := e.idx.Of(x)
			for _, s := range prev {
				p := tab.get(e.pack(ix, s))
				if p == nil || e.inserted(x, e.ids[w]) {
					continue
				}
				r.meter.AddEdges(1)
				if p.affected() {
					continue
				}
				if pd := p.dist + 1; pd < best {
					best, n = pd, 1
				} else if pd == best {
					n++
				}
			}
		}
		ent.dist, ent.nm = best, n
		r.meter.AddEntries(1)
		if best < unreachable {
			r.push(k, best)
		}
	}
	// Insertions seed the queue (lines 5–8). Every candidate is computed
	// from the distances as they stand now, before any is applied: a tail
	// that another insertion lowers is queued and relaxes this edge again
	// when popped, at a strictly smaller candidate, which resets the count
	// instead of doubling it. An affected tail is skipped for the same
	// reason from the other side: its distance is tentative, and settle
	// relaxes the new edge when it pops the tail.
	for _, rt := range routes {
		u := batch[uint32(rt)]
		if u.Op != graph.Insert {
			continue
		}
		iv, iw := e.idx.Of(u.From), e.idx.Of(u.To)
		for s := 1; s < e.nfa.NumStates(); s++ {
			next := e.nfa.NextID(s, e.lbl[iw])
			if len(next) == 0 {
				continue
			}
			ev := tab.get(e.pack(iv, s))
			if ev == nil || ev.affected() {
				continue
			}
			for _, s2 := range next {
				r.relaxations = append(r.relaxations, relaxation{e.pack(iw, s2), ev.dist + 1})
			}
		}
	}
	for _, x := range r.relaxations {
		r.relax(x.k, x.cand)
	}
	r.relaxations = r.relaxations[:0]
	// Settle exact values (line 9).
	r.settle()
	// Entries that stayed unreachable disappear.
	for _, k := range r.aff {
		ent := tab.get(k)
		ent.k &^= affBit
		if ent.dist < unreachable {
			continue
		}
		tab.del(k)
		r.noteRemoved(k)
		r.meter.AddEntries(1)
	}
	r.aff = r.aff[:0]
}

// identAff implements Fig. 5 line 1: every deleted product edge that was on
// a shortest path takes one from its head's nm, an entry whose nm drains to
// zero is affected, and the loss propagates along the edges the affected
// entry supported. It leaves the affected entries flagged and listed in
// r.aff, their distances still the old ones.
func (r *srcRepair) identAff(batch graph.Batch, routes []uint64) {
	e, tab := r.e, r.tab
	// unsupport takes predecessor (dist) away from entry k, if it counted.
	unsupport := func(k key, dist int32) {
		ent := tab.get(k)
		if ent == nil || ent.affected() || ent.dist != dist+1 {
			return
		}
		if ent.nm--; ent.nm == 0 {
			ent.k |= affBit
			r.aff = append(r.aff, k)
		}
	}
	for _, rt := range routes {
		u := batch[uint32(rt)]
		if u.Op != graph.Delete {
			continue
		}
		iv, iw := e.idx.Of(u.From), e.idx.Of(u.To)
		for s := 1; s < e.nfa.NumStates(); s++ {
			next := e.nfa.NextID(s, e.lbl[iw])
			if len(next) == 0 {
				continue
			}
			ev := tab.get(e.pack(iv, s))
			if ev == nil {
				continue
			}
			for _, s2 := range next {
				unsupport(e.pack(iw, s2), ev.dist)
			}
		}
	}
	for i := 0; i < len(r.aff); i++ {
		k := r.aff[i]
		r.meter.AddNodes(1)
		// Successors that relied on k for their shortest paths lose that
		// support — over the edges that were there before the batch.
		v, s, dist := e.ids[e.nodeOf(k)], e.stateOf(k), tab.get(k).dist
		for _, y := range e.g.SuccessorsSorted(v) {
			r.meter.AddEdges(1)
			iy := e.idx.Of(y)
			next := e.nfa.NextID(s, e.lbl[iy])
			if len(next) == 0 || e.inserted(v, y) {
				continue
			}
			for _, sy := range next {
				unsupport(e.pack(iy, sy), dist)
			}
		}
	}
}
