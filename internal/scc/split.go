package scc

import (
	"fmt"
	"math"
	"slices"

	"incgraph/internal/graph"
)

// This file is IncSCC−'s half of the engine: whether a component survives
// the deletions inside it (settle), and if not, its parts carved off as
// fresh components (peel, splitComp, carve), their ranks slotted into its
// window by order.go. The per-node Tarjan structures it decides with —
// num, lowlink, DFS parent — are this half's own (checkTrees).

// settle decides component c after its intra-component updates, already on
// the mirror, deleted the edges dels. c is still one component iff every
// deleted (v, w) still has v ⇝ w inside it. A fresh component asks the
// lowlink certificate first; where the certificate cannot vouch, or c is
// dirty, one search per deletion decides. The searches share a budget of |c|
// node expansions, so that a batch whose searches would cost more than the
// scoped Tarjan runs the pass instead, having paid about one pass's worth
// of searches first. TestWorkAtScale pins what that costs: a 1,000-update
// batch and its inverse meter 2.9× one Tarjan over a 20k-node livej-sim,
// whose forward batch spends the budget, and 0.73× over a 200k-node one,
// whose batches do not. A component the searches prove intact is marked
// dirty, as the certificate no longer describes it.
//
// A search that fails because one of its sides ran dry, not because the
// budget ran out, has found a closed part of the split: everything v reaches
// (no edge leaves it) or everything that reaches w (no edge enters it), and
// the smaller side of the split, since the two sides grow in turn. peel
// carves it off, and c keeps the rest, R. R is one component iff its
// boundary nodes are mutually reachable inside it — one search from each to
// the next, round the sorted boundary — and every deletion inside R still
// has its source reaching its target: any path of the old component between
// two nodes of R leaves R only through the sides carved off, coming back
// over an edge between them and R, or over a deleted edge; each such detour
// runs between boundary nodes or is a deletion, and can be replaced by a
// path inside R. A search proved before a peel needs no second one: a path
// between two nodes of R never enters a closed side. A search of R that runs
// dry is peeled in turn, and so on while the budget lasts; only a spent
// budget runs the scoped Tarjan, over what is left of c.
func (s *State) settle(c CompID, dels []graph.Update, dt *deltaTracker) {
	if !s.dirty[c] && !slices.ContainsFunc(dels, func(u graph.Update) bool { return !s.chkReach(u, c) }) {
		return
	}
	// c ends dirty or freshly passed: a deleted tree arc's head gives up its
	// parent, so that a DFS parent is always a predecessor (peel relies on
	// it).
	for _, u := range dels {
		if v, w := s.idx.Of(u.From), s.idx.Of(u.To); s.parent[w] == v {
			s.parent[w] = -1
		}
	}
	budget := len(s.members[c])
	s.bnd = s.ring.reset(s.bnd[:0])
	s.gone = s.gone[:0]
	var o outcome
	for next := 0; ; {
		o = s.searchRing(c, &budget)
		for o == met && next < len(dels) {
			v, w := s.idx.Of(dels[next].From), s.idx.Of(dels[next].To)
			if s.comp[v] == c && s.comp[w] == c {
				o = s.search(v, w, c, &budget)
			}
			if o == met {
				next++
			}
		}
		if o == met || o == spent {
			break
		}
		s.peel(c, o == sinkDry, dels, dt)
	}
	s.drop(c, s.gone)
	if o == spent {
		s.repair(c, dt)
	} else {
		s.dirty[c] = true
	}
}

// chkReach handles the already applied deletion u inside the fresh
// component c without a search where it can: a non-tree edge repairs
// lowlinks along the ancestor path. It reports whether the certificate
// survived, i.e. the component is intact as far as u is concerned. A tree
// arc breaks the DFS tree the certificate rests on, so it fails at once.
func (s *State) chkReach(u graph.Update, c CompID) bool {
	v, w := s.idx.Of(u.From), s.idx.Of(u.To)
	return s.parent[w] != v && s.lowlinkWalkIntact(v, c)
}

// searchRing proves, inside c, every link of the ring not yet proved, and
// returns the outcome of the first search that fails, or met.
func (s *State) searchRing(c CompID, budget *int) outcome {
	r := &s.ring
	for i, x := range r.nodes {
		if r.linked[i] {
			continue
		}
		if o := s.search(x, r.nodes[(i+1)%len(r.nodes)], c, budget); o != met {
			return o
		}
		r.linked[i] = true
	}
	return met
}

// boundaryRing is the boundary of what settle's peels have left of a
// component, R: its nodes in ascending order, and per node whether it is
// proved to reach the next one — the last node the first — inside R. Once
// every link is proved, the boundary nodes are mutually reachable inside R.
type boundaryRing struct {
	nodes  []int32
	linked []bool
	spare  []bool
}

// reset makes nodes, ascending and distinct, the ring and returns the
// previous ring's node slice for reuse. A link between two nodes that
// were neighbours in the previous ring, in the same order, stays proved: a
// path between two nodes of R never enters a side peeled off it.
func (r *boundaryRing) reset(nodes []int32) []int32 {
	old, was := r.nodes, r.linked
	linked := r.spare[:0]
	first, prev, j := -1, -1, 0
	for i, x := range nodes {
		for j < len(old) && old[j] < x {
			j++
		}
		at := -1
		if j < len(old) && old[j] == x {
			at = j
		}
		if i == 0 {
			first = at
		} else {
			linked = append(linked, prev >= 0 && at == prev+1 && was[prev])
		}
		prev = at
	}
	if len(nodes) > 0 { // the link from the last node round to the first
		linked = append(linked, prev >= 0 && first == (prev+1)%len(old) && was[prev])
	}
	r.nodes, r.linked, r.spare = nodes, linked, was
	return old
}

// outcome is how a search ended.
type outcome int8

const (
	met     outcome = iota // the sides met: v reaches w
	spent                  // the budget ran out first
	sinkDry                // the forward side ran dry: it is all v reaches, and no edge leaves it
	srcDry                 // the backward side ran dry: it is all that reaches w, and no edge enters it
)

// search decides whether v reaches w through nodes of component c, by a
// breadth-first search forward from v over the successor rows alternating
// node by node with one backward from w over the predecessor rows; the two
// meet on any path. Each expansion spends one unit of *budget. A side that
// runs dry is left in s.sr.fwd or s.sr.bwd until the next search.
func (s *State) search(v, w int32, c CompID, budget *int) outcome {
	if v == w {
		return met
	}
	sr := &s.sr
	sr.begin(len(s.ids))
	fwd, bwd := sr.epoch, sr.epoch+1
	sr.stamp[v], sr.stamp[w] = fwd, bwd
	sr.fwd = append(sr.fwd[:0], v)
	sr.bwd = append(sr.bwd[:0], w)
	for f, b := 0, 0; ; {
		if f == len(sr.fwd) {
			return sinkDry
		}
		if *budget <= 0 {
			return spent
		}
		if s.expand(sr.fwd[f], s.succ, c, fwd, bwd, &sr.fwd) {
			return met
		}
		f++
		*budget--
		if b == len(sr.bwd) {
			return srcDry
		}
		if *budget <= 0 {
			return spent
		}
		if s.expand(sr.bwd[b], s.pred, c, bwd, fwd, &sr.bwd) {
			return met
		}
		b++
		*budget--
	}
}

// expand visits x's row for one side of a search: a neighbour in c the
// other side has stamped means the sides met; an unstamped one is stamped
// mine and queued.
func (s *State) expand(x int32, rows [][]int32, c CompID, mine, theirs uint32, queue *[]int32) bool {
	row := rows[x]
	s.meter.AddNodes(1)
	s.meter.AddEdges(len(row))
	stamp := s.sr.stamp
	for _, y := range row {
		if s.comp[y] != c {
			continue
		}
		switch stamp[y] {
		case theirs:
			return true
		case mine:
		default:
			stamp[y] = mine
			*queue = append(*queue, y)
		}
	}
	return false
}

// searcher is the scratch of search: per node a stamp — epoch for the
// forward side, epoch+1 for the backward one, anything lower unvisited —
// and the two sides' queues. A warm search allocates nothing.
type searcher struct {
	epoch    uint32
	stamp    []uint32
	fwd, bwd []int32
}

// begin readies the scratch for a search over indices below n.
func (sr *searcher) begin(n int) {
	if len(sr.stamp) < n {
		sr.stamp = make([]uint32, n+n/2+8)
		sr.epoch = 0
	}
	if sr.epoch >= math.MaxUint32-3 { // stale stamps could collide after a wrap
		clear(sr.stamp)
		sr.epoch = 0
	}
	sr.epoch += 2
}

// peeling labels the nodes of a closed side while the scoped pass over them
// runs; no component has a negative ID.
const peeling CompID = -1

// peel carves the side of the last search that ran dry — a sink side (the
// forward one) when sink, else a source side — off component c as fresh
// components; c keeps the rest, R, with its CompID, G_c maps and dirty mark.
// ΔO is what a scoped Tarjan over c would publish if R is one component,
// which settle decides; peel leaves R's boundary in s.ring for it, and the
// side's members in s.gone, which settle takes out of c's list.
//
// The side S is closed in c after the batch: no edge leaves a sink side, none
// enters a source side, so no component straddles S and R and a scoped
// Tarjan over S alone finds S's components. Their ranks are slotted with R's
// into c's window: a sink side's parts take the lowest values and R keeps
// c's rank, a source side's parts take the highest and R the lowest. The
// cost is O(|S| + S's edges) (carve).
func (s *State) peel(c CompID, sink bool, dels []graph.Update, dt *deltaTracker) {
	side := s.sr.bwd
	if sink {
		side = s.sr.fwd
	}
	from := s.from[:0]
	for _, x := range side {
		s.comp[x] = peeling
		from = append(from, s.ids[x])
	}
	slices.Sort(from)
	s.from = from
	s.gone = append(s.gone, from...)
	s.runScoped(peeling, from)
	at := 0 // R's place in the window
	if sink {
		at = s.t.numComps()
	}
	// R's boundary: the nodes of earlier peels' boundaries R still holds,
	// the R ends of S's edges (carve), and the R end of a deleted edge
	// between R and S, which a path in c before the batch may have crossed.
	s.bnd = s.bnd[:0]
	for _, y := range s.ring.nodes {
		if s.comp[y] == c {
			s.bnd = append(s.bnd, y)
		}
	}
	s.carve(c, -1, at, from, dt)
	for _, u := range dels {
		v, w := s.idx.Of(u.From), s.idx.Of(u.To)
		if s.comp[v] == c && s.comp[w] != c {
			s.bnd = append(s.bnd, v)
		} else if s.comp[w] == c && s.comp[v] != c {
			s.bnd = append(s.bnd, w)
		}
	}
	slices.Sort(s.bnd)
	s.bnd = s.ring.reset(slices.Compact(s.bnd))
}

// carve moves the components of the last scoped run, all but the keep-th
// (keep < 0: all), out of c as fresh components; the keep-th stays c, with
// its CompID and G_c maps, and changes its members under it (dt.keep). from
// lists the moved nodes in ascending order.
// c and the moved parts take their ranks in c's window, c the at-th (slot).
// The moved parts' G_c counters come from their rows alone, and so do the
// moves of c's: an edge between a part and a component outside c was
// counted on c. A node left in c whose DFS parent moved is the head of a
// tree arc out of a part, which the part's rows hold too, and an edge
// between a part and c puts its c end on s.bnd. The cost is the moved
// nodes and their edges, and the store of the run.
func (s *State) carve(c CompID, keep, at int, from []graph.NodeID, dt *deltaTracker) {
	dt.keep(c, s.members[c])
	first := s.mint(from, keep)
	s.slot(c, first, at)
	for id := first; id < s.next; id++ {
		dt.create(id)
	}
	s.store()
	s.meter.AddEntries(len(from))
	for _, x := range s.t.order {
		cx := s.comp[x]
		if cx == c {
			continue // the kept part: its edges to the others are theirs
		}
		succ := s.succ[x]
		s.meter.AddEdges(len(succ))
		for _, y := range succ {
			switch cy := s.comp[y]; {
			case cy == cx:
			case cy == c:
				s.gcAdd(cx, c, 1)
				s.bnd = append(s.bnd, y)
				if s.parent[y] == x {
					s.parent[y] = -1
				}
			case cy >= first:
				s.gcAdd(cx, cy, 1)
			default:
				s.gcAdd(c, cy, -1)
				s.gcAdd(cx, cy, 1)
			}
		}
		pred := s.pred[x]
		s.meter.AddEdges(len(pred))
		for _, y := range pred {
			switch cy := s.comp[y]; {
			case cy == c:
				s.gcAdd(c, cx, 1)
				s.bnd = append(s.bnd, y)
			case cy < first:
				s.gcAdd(cy, c, -1)
				s.gcAdd(cy, cx, 1)
			}
		}
	}
}

// drop takes gone, nodes that have left c, out of c's member list: a new
// list, as a published one is never modified, copied in runs between them.
// gone is sorted in place.
func (s *State) drop(c CompID, gone []graph.NodeID) {
	if len(gone) == 0 {
		return
	}
	slices.Sort(gone)
	old := s.members[c]
	rest := make([]graph.NodeID, 0, len(old)-len(gone))
	for _, v := range gone {
		i, _ := slices.BinarySearch(old, v)
		rest = append(rest, old[:i]...)
		old = old[i+1:]
	}
	s.members[c] = append(rest, old...)
}

// repair runs the component-scoped Tarjan over c and either refreshes its
// num/lowlink structures (still one component) or splits it.
func (s *State) repair(c CompID, dt *deltaTracker) {
	delete(s.dirty, c)
	s.runScoped(c, s.members[c])
	if s.t.numComps() == 1 {
		s.store()
	} else {
		s.splitComp(c, dt)
	}
}

// store installs the last scoped run's num/lowlink/parent for every node it
// covered. Parent pointers crossing component boundaries (possible after a
// split) are dropped.
func (s *State) store() {
	t := &s.t
	for _, v := range t.order {
		s.num[v] = t.num[v]
		s.low[v] = t.low[v]
		p := t.parent[v]
		if p >= 0 && s.comp[p] != s.comp[v] {
			p = -1
		}
		s.parent[v] = p
	}
	s.meter.AddEntries(len(t.order))
}

// recomputeLow evaluates Tarjan's lowlink recurrence for x against the
// current stored values, restricted to component c.
func (s *State) recomputeLow(x int32, c CompID) int32 {
	low := s.num[x]
	succ := s.succ[x]
	s.meter.AddEdges(len(succ))
	for _, w := range succ {
		if s.comp[w] != c {
			continue
		}
		cand := s.num[w]
		if s.parent[w] == x {
			cand = s.low[w]
		}
		low = min(low, cand)
	}
	return low
}

// lowlinkWalkIntact repairs lowlinks upward from x after a non-tree-edge
// deletion. It returns true when the certificate "low < num for every
// non-root" survives, i.e. the component is still strongly connected; false
// signals a split (caller re-runs Tarjan on the component). The cost is
// proportional to the repaired path — the affected area.
func (s *State) lowlinkWalkIntact(x int32, c CompID) bool {
	for {
		s.meter.AddNodes(1)
		newLow := s.recomputeLow(x, c)
		if newLow == s.low[x] {
			return true // change stopped propagating
		}
		s.low[x] = newLow
		s.meter.AddEntries(1)
		p := s.parent[x]
		if p < 0 {
			return true // DFS root: low == num is normal there
		}
		if newLow == s.num[x] {
			return false // non-root subtree lost its back reach: split
		}
		x = p
	}
}

// splitComp splits component c into the parts the last scoped run found
// (≥ 2 components in reverse topological order), slotting their ranks into
// c's window, ascending in that order. The largest part keeps c's CompID and
// G_c maps; the others move out (carve).
func (s *State) splitComp(c CompID, dt *deltaTracker) {
	t := &s.t
	keep := 0
	for i := 1; i < t.numComps(); i++ {
		if len(t.comp(i)) > len(t.comp(keep)) {
			keep = i
		}
	}
	from := s.from[:0]
	for i := range t.numComps() {
		if i != keep {
			for _, x := range t.comp(i) {
				from = append(from, s.ids[x])
			}
		}
	}
	slices.Sort(from)
	s.from = from
	s.carve(c, keep, keep, from, dt)
	s.drop(c, from)
}

// checkTrees audits the per-node Tarjan structures: present for every
// node, and a DFS parent is a predecessor in the node's own component.
func (s *State) checkTrees() error {
	n := len(s.ids)
	if len(s.num) != n || len(s.low) != n || len(s.parent) != n {
		return fmt.Errorf("scc: num/low/parent cover %d/%d/%d of %d nodes",
			len(s.num), len(s.low), len(s.parent), n)
	}
	for i, p := range s.parent {
		if p >= 0 && s.comp[p] != s.comp[i] {
			return fmt.Errorf("scc: node %d has its DFS parent %d in another component", s.ids[i], s.ids[p])
		}
		if p >= 0 && !slices.Contains(s.pred[i], p) {
			return fmt.Errorf("scc: node %d has its DFS parent %d, not a predecessor", s.ids[i], s.ids[p])
		}
	}
	return nil
}
