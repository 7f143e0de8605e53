package scc

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"incgraph/internal/graph"
)

// This file implements the incremental side of SCC (Section 5.3):
//
//   - IncSCC+ (ApplyInsert, Fig. 7): an intra-component insertion changes
//     nothing but the mirror (it only adds paths, so the lowlink certificate
//     stays sound); an inter-component insertion that respects topological
//     ranks only bumps a counter of G_c; a rank violation triggers the
//     bounded bidirectional search DFSf/DFSb over G_c, cycle detection with
//     Tarjan on the affected area, merging, and reallocRank.
//   - IncSCC− (ApplyDelete): an inter-component deletion decrements a G_c
//     counter. An intra-component deletion (v, w) leaves the component C
//     whole iff v still reaches w inside C (any old path through (v, w)
//     reroutes through the new one). A fresh component first tries the
//     chkReach lowlink walk (cost proportional to the affected path) on a
//     non-tree edge; where that certificate cannot vouch — a tree arc, a
//     lowlink that reached its own num, a dirty component — a bidirectional
//     search decides exactly. A search that fails because one of its sides
//     ran dry has that side, the smaller side of the split, closed: it is
//     carved off as fresh components by a Tarjan over it alone (peel), C
//     keeps the rest under its own CompID, and searches between the
//     boundary nodes of the rest decide whether the rest is still one
//     component, peeling each further side that runs dry. A
//     component-scoped Tarjan runs only once the searches have expanded as
//     many nodes as C has members; its largest part keeps C's CompID too.
//   - IncSCC  (Apply): batch updates, grouping all intra-component updates
//     of one component into one decision (settle: certificate, then
//     searches and peels, then at most one scoped Tarjan) and then
//     handling inter-component updates against G_c, where a merge folds
//     the smaller components into the largest.
//   - IncSCCn (ApplyUnitwise): the unit-at-a-time baseline.
//
// The affected area AFF of the paper — changes to num/lowlink, their
// neighbors, and rank changes in G_c — is exactly what these routines
// touch, which is what makes them bounded relative to Tarjan.

// Delta describes changes ΔO to SCC(G): components that appeared and
// components that disappeared, in canonical (sorted) form.
type Delta struct {
	Added   [][]graph.NodeID
	Removed [][]graph.NodeID
}

// Counts returns the numbers of components added and removed; none is
// updated.
func (d Delta) Counts() (added, removed, updated int) { return len(d.Added), len(d.Removed), 0 }

// Len returns |ΔO| in rows.
func (d Delta) Len() int { return len(d.Removed) + len(d.Added) }

// Each calls yield with every removed component as gone, then with every
// added one: the member slices themselves, shared.
func (d Delta) Each(yield func(row []graph.NodeID, gone bool)) {
	for _, c := range d.Removed {
		yield(c, true)
	}
	for _, c := range d.Added {
		yield(c, false)
	}
}

// deltaTracker accumulates component births and deaths across one Apply.
// CompIDs are minted in increasing order, so a component was born in this
// batch exactly when its ID is at least the first one the batch minted. A
// component that changes its members under its own ID — the largest of a
// merge, what a peel leaves — counts as the death of its list before the
// batch and the birth of its list after it; kept lists those that existed
// before the batch.
type deltaTracker struct {
	base      CompID
	born      []CompID
	destroyed [][]graph.NodeID
	kept      []CompID
}

func (s *State) newDeltaTracker() *deltaTracker { return &deltaTracker{base: s.next} }

func (dt *deltaTracker) destroy(c CompID, members []graph.NodeID) {
	if c >= dt.base || slices.Contains(dt.kept, c) {
		return // born within this batch, or its old list is recorded
	}
	dt.destroyed = append(dt.destroyed, members)
}

// keep records that c, whose members are members, is about to change them
// under its own ID.
func (dt *deltaTracker) keep(c CompID, members []graph.NodeID) {
	if c >= dt.base || slices.Contains(dt.kept, c) {
		return
	}
	dt.kept = append(dt.kept, c)
	dt.destroyed = append(dt.destroyed, members)
	dt.born = append(dt.born, c)
}

func (dt *deltaTracker) create(c CompID) { dt.born = append(dt.born, c) }

// delta returns the batch's ΔO. Member lists are immutable once published,
// so the delta shares them with the state instead of copying.
func (dt *deltaTracker) delta(s *State) Delta {
	var d Delta
	for _, c := range dt.born {
		if members, ok := s.members[c]; ok {
			d.Added = append(d.Added, members)
		}
	}
	sortBySmallest(d.Added)
	sortBySmallest(dt.destroyed)
	// A component that was taken apart and put together again within the
	// batch died under one CompID and was born under another, but SCC(G)
	// never lost it: it belongs in neither list. Both lists are ordered by
	// smallest member, which identifies a component within a partition.
	added := d.Added[:0]
	i := 0
	for _, gone := range dt.destroyed {
		for i < len(d.Added) && d.Added[i][0] < gone[0] {
			added = append(added, d.Added[i])
			i++
		}
		if i < len(d.Added) && slices.Equal(d.Added[i], gone) {
			i++
			continue
		}
		d.Removed = append(d.Removed, gone)
	}
	d.Added = append(added, d.Added[i:]...)
	return d
}

// ApplyInsert processes a unit edge insertion with IncSCC+ (Fig. 7).
func (s *State) ApplyInsert(u graph.Update) (Delta, error) {
	dt := s.newDeltaTracker()
	if err := s.applyInsert(u, dt); err != nil {
		return Delta{}, err
	}
	return dt.delta(s), nil
}

// ApplyDelete processes a unit edge deletion with IncSCC−.
func (s *State) ApplyDelete(u graph.Update) (Delta, error) {
	dt := s.newDeltaTracker()
	if err := s.applyDelete(u, dt); err != nil {
		return Delta{}, err
	}
	return dt.delta(s), nil
}

// ApplyUnitwise is IncSCCn: unit updates processed one at a time.
func (s *State) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	dt := s.newDeltaTracker()
	for _, u := range batch {
		var err error
		if u.Op == graph.Insert {
			err = s.applyInsert(u, dt)
		} else {
			err = s.applyDelete(u, dt)
		}
		if err != nil {
			return Delta{}, err
		}
	}
	return dt.delta(s), nil
}

// Apply processes a batch ΔG with IncSCC on a state that owns its graph: it
// advances the graph to G ⊕ ΔG (graph.Advance: the batch is normalized, and
// a batch that cannot be applied is rejected before anything is touched)
// and then repairs.
func (s *State) Apply(batch graph.Batch) (Delta, error) {
	norm, err := s.g.Advance(batch)
	if err != nil {
		return Delta{}, fmt.Errorf("scc: %w", err)
	}
	return s.Repair(batch, norm), nil
}

// Repair brings the partition from SCC(G) to SCC(G ⊕ ΔG) and returns ΔO:
// intra-component updates are grouped per component — a component whose
// deletions the lowlink certificate or the bounded searches prove harmless
// mints nothing, and one that split peels the closed sides the searches
// find, or runs one scoped Tarjan — then
// inter-component deletions update G_c counters, then
// inter-component insertions run the rank-window machinery with an
// already-satisfied fast path. It assumes the graph was G when the state
// last returned and has just been moved to G ⊕ ΔG by whoever owns it —
// Apply, or a store that keeps one graph under several engines — with
// batch valid on G and norm its normal form (batch.Normalize()). It never
// looks at the graph: ΔG is replayed onto the mirror, which is what every
// pass reads.
func (s *State) Repair(batch, norm graph.Batch) Delta {
	dt := s.newDeltaTracker()
	// Node creation is a side effect of insertions even when the edge is
	// later cancelled by a deletion, so it runs on the raw batch.
	for _, u := range batch {
		if u.Op == graph.Insert {
			s.ensureNode(u.From, dt)
			s.ensureNode(u.To, dt)
		}
	}
	// Classify against the component map at batch start.
	intra := make(map[CompID]graph.Batch)
	var interDel, interIns graph.Batch
	for _, u := range norm {
		cv, cw := s.compOf(u.From), s.compOf(u.To)
		if cv == cw {
			intra[cv] = append(intra[cv], u)
		} else if u.Op == graph.Delete {
			interDel = append(interDel, u)
		} else {
			interIns = append(interIns, u)
		}
	}
	// (a) Intra-component updates, grouped: apply the group's edges, then
	// decide once whether the deletions split the component.
	comps := make([]CompID, 0, len(intra))
	for c := range intra {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	for _, c := range comps {
		var dels graph.Batch
		for _, u := range intra[c] {
			s.applyEdge(u)
			if u.Op == graph.Delete {
				dels = append(dels, u)
			}
		}
		if len(dels) > 0 { // insertions alone never split
			s.settle(c, dels, dt)
		}
	}
	// (b) Inter-component deletions: G_c counter maintenance.
	for _, u := range interDel {
		s.applyEdge(u)
		s.gcDecrement(s.compOf(u.From), s.compOf(u.To))
	}
	// (c) Inter-component insertions.
	for _, u := range interIns {
		s.applyEdge(u)
		cv, cw := s.compOf(u.From), s.compOf(u.To)
		if cv == cw {
			// An earlier merge in this batch made the edge intra; the
			// merged component is already marked dirty, and intra
			// insertions need no further work.
			continue
		}
		s.processInterInsert(cv, cw, dt)
	}
	return dt.delta(s)
}

func (s *State) applyInsert(u graph.Update, dt *deltaTracker) error {
	if u.Op != graph.Insert {
		return fmt.Errorf("scc: applyInsert got %v", u)
	}
	if err := s.g.Apply(u); err != nil {
		return err
	}
	s.ensureNode(u.From, dt)
	s.ensureNode(u.To, dt)
	s.applyEdge(u)
	cv, cw := s.compOf(u.From), s.compOf(u.To)
	if cv == cw {
		// Fig. 7 lines 1–2: T := T ⊕ ΔG. No structural work is needed:
		// the partition is unchanged, and the stored lowlinks remain a
		// sound connectivity certificate (insertions only add paths), so
		// the next deletion's chkReach walk stays valid.
		return nil
	}
	s.processInterInsert(cv, cw, dt)
	return nil
}

func (s *State) applyDelete(u graph.Update, dt *deltaTracker) error {
	if u.Op != graph.Delete {
		return fmt.Errorf("scc: applyDelete got %v", u)
	}
	if err := s.g.Apply(u); err != nil {
		return err
	}
	s.applyEdge(u)
	cv, cw := s.compOf(u.From), s.compOf(u.To)
	if cv != cw {
		s.gcDecrement(cv, cw)
		return nil
	}
	s.settle(cv, []graph.Update{u}, dt)
	return nil
}

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
	if !s.dirty[c] {
		ok := true
		for i := 0; ok && i < len(dels); i++ {
			ok = s.chkReach(dels[i], c)
		}
		if ok {
			return
		}
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
// into c's window (splitRanks): a sink side's parts take the lowest values
// and R keeps c's rank, a source side's parts take the highest and R the
// lowest. The cost is O(|S| + S's edges) (carve).
func (s *State) peel(c CompID, sink bool, dels []graph.Update, dt *deltaTracker) {
	side := s.sr.bwd
	if sink {
		side = s.sr.fwd
	}
	dt.keep(c, s.members[c])
	from := s.from[:0]
	for _, x := range side {
		s.comp[x] = peeling
		from = append(from, s.ids[x])
	}
	slices.Sort(from)
	s.from = from
	s.gone = append(s.gone, from...)
	s.runScoped(peeling, from)
	k := s.t.numComps()
	vals := s.splitRanks(c, k+1) // the last value is c's rank: it stays registered
	for _, v := range vals[:k] {
		s.reg.insert(v)
	}
	if sink {
		s.rank[c] = vals[k]
		vals = vals[:k]
	} else {
		s.rank[c] = vals[0]
		vals = vals[1:]
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
	s.carve(c, -1, from, vals, dt)
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
// its CompID and G_c maps. from lists the moved nodes in ascending order,
// ranks the rank of each of the run's components, which the caller has
// registered. The moved parts' G_c counters come from their rows alone, and
// so do the moves of c's: an edge between a part and a component outside c
// was counted on c. A node left in c whose DFS parent moved is the head of
// a tree arc out of a part, which the part's rows hold too, and an edge
// between a part and c puts its c end on s.bnd. The cost is the moved
// nodes and their edges, and the store of the run.
func (s *State) carve(c CompID, keep int, from []graph.NodeID, ranks []float64, dt *deltaTracker) {
	first := s.mint(from, keep)
	id := first
	for i, rk := range ranks {
		if i == keep {
			s.rank[c] = rk
			continue
		}
		s.gcOut[id] = make(map[CompID]int)
		s.gcIn[id] = make(map[CompID]int)
		s.rank[id] = rk
		dt.create(id)
		id++
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

// ensureNode indexes v, a node the graph has gained since the state last
// looked, as a fresh singleton component; a node already indexed is left
// alone. A new component with no incident edges can take any unique rank;
// the top of the registry keeps the invariant trivially.
func (s *State) ensureNode(v graph.NodeID, dt *deltaTracker) {
	if _, ok := s.idx.Get(v); ok {
		return
	}
	id := s.addNode(v)
	s.gcOut[id] = make(map[CompID]int)
	s.gcIn[id] = make(map[CompID]int)
	r := s.reg.max() + 1
	s.rank[id] = r
	s.reg.insert(r)
	s.num = append(s.num, 1)
	s.low = append(s.low, 1)
	s.parent = append(s.parent, -1)
	dt.create(id)
	s.meter.AddEntries(1)
}

// gcDecrement lowers the multiplicity of G_c edge (cv, cw), removing it at
// zero. Removing edges can never violate the rank invariant.
func (s *State) gcDecrement(cv, cw CompID) {
	s.meter.AddEntries(1)
	s.gcAdd(cv, cw, -1)
}

// gcAdd adds d to the multiplicity of G_c edge (cv, cw), removing the edge
// at zero.
func (s *State) gcAdd(cv, cw CompID, d int) {
	if n := s.gcOut[cv][cw] + d; n > 0 {
		s.gcOut[cv][cw] = n
		s.gcIn[cw][cv] = n
	} else {
		delete(s.gcOut[cv], cw)
		delete(s.gcIn[cw], cv)
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
		if cand < low {
			low = cand
		}
	}
	return low
}

// lowlinkWalkIntact repairs lowlinks upward from v after a non-tree-edge
// deletion. It returns true when the certificate "low < num for every
// non-root" survives, i.e. the component is still strongly connected; false
// signals a split (caller re-runs Tarjan on the component). The cost is
// proportional to the repaired path — the affected area.
func (s *State) lowlinkWalkIntact(v int32, c CompID) bool {
	x := v
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

// splitRanks returns k strictly increasing rank values in (pred(r), r] for
// the parts of a split component of rank r, with the last value reusing r.
// External predecessors of the old component have rank > r and external
// successors have rank ≤ pred(r), so any values in this window keep the
// global invariant. Float exhaustion triggers a full renumbering.
func (s *State) splitRanks(c CompID, k int) []float64 {
	for attempt := 0; ; attempt++ {
		r := s.rank[c]
		l := s.reg.predecessor(r)
		step := (r - l) / float64(k)
		vals := make([]float64, k)
		ok := true
		for i := range vals {
			vals[i] = r - step*float64(k-1-i)
			if i == 0 && !(vals[0] > l) {
				ok = false
				break
			}
			if i > 0 && !(vals[i] > vals[i-1]) {
				ok = false
				break
			}
		}
		if ok {
			vals[k-1] = r // avoid float drift on the reused endpoint
			return vals
		}
		if attempt > 0 {
			panic("scc: rank renumbering failed to make room")
		}
		s.renumberAll()
	}
}

// renumberAll reassigns integer ranks 0..n-1 by a topological sort of G_c.
func (s *State) renumberAll() {
	ids := make([]CompID, 0, len(s.members))
	for c := range s.members {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	t := s.runGc(ids)
	defer scratchPool.Put(t)
	s.reg.vals = s.reg.vals[:0]
	for i, c := range t.order {
		// G_c is acyclic here, so every component is a singleton.
		s.rank[ids[c]] = float64(i)
		s.reg.insert(float64(i))
		s.meter.AddEntries(1)
	}
}

// runGc runs Tarjan on the subgraph of G_c induced by cand (ascending),
// numbering the candidates 0..k-1 in that order; successors are followed
// in ascending CompID order. The pass borrows a pooled scratch, which the
// caller returns when it has read the result: s.t may be holding a scoped
// run that a split is still installing (splitRanks can renumber).
func (s *State) runGc(cand []CompID) *tarjan {
	pos := make(map[CompID]int32, len(cand))
	for i, c := range cand {
		pos[c] = int32(i)
	}
	t := scratchPool.Get().(*tarjan)
	t.run(t.collect(len(cand), func(v int32, row []int32) []int32 {
		start := len(row)
		for o := range s.gcOut[cand[v]] {
			if j, ok := pos[o]; ok {
				row = append(row, j)
			}
		}
		slices.Sort(row[start:])
		return row
	}), nil, nil, 0)
	return t
}

// splitComp splits component c into the parts the last scoped run found
// (≥ 2 components in reverse topological order), slotting their ranks into
// c's window, ascending in that order. The largest part keeps c's CompID and
// G_c maps; the others move out (carve).
func (s *State) splitComp(c CompID, dt *deltaTracker) {
	t := &s.t
	k := t.numComps()
	keep := 0
	for i := 1; i < k; i++ {
		if len(t.comp(i)) > len(t.comp(keep)) {
			keep = i
		}
	}
	dt.keep(c, s.members[c])
	from := s.from[:0]
	for i := range k {
		if i != keep {
			for _, x := range t.comp(i) {
				from = append(from, s.ids[x])
			}
		}
	}
	slices.Sort(from)
	s.from = from
	ranks := s.splitRanks(c, k) // the last value is c's rank: it stays registered
	for _, v := range ranks[:k-1] {
		s.reg.insert(v)
	}
	s.carve(c, keep, from, ranks, dt)
	s.drop(c, from)
}

// dfsGc explores G_c from start (forward when fwd, else backward), visiting
// only nodes admitted by the rank window. This is DFSf/DFSb of Fig. 7.
func (s *State) dfsGc(start CompID, fwd bool, admit func(CompID) bool) map[CompID]bool {
	seen := map[CompID]bool{start: true}
	stack := []CompID{start}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.meter.AddNodes(1)
		var adj map[CompID]int
		if fwd {
			adj = s.gcOut[c]
		} else {
			adj = s.gcIn[c]
		}
		for o := range adj {
			s.meter.AddEdges(1)
			if !seen[o] && admit(o) {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	return seen
}

// processInterInsert registers the inter-component edge (cv, cw) in G_c and
// restores the rank invariant (Fig. 7 lines 3–9), merging the components a
// new cycle joins.
func (s *State) processInterInsert(cv, cw CompID, dt *deltaTracker) {
	s.meter.AddEntries(1)
	if s.gcOut[cv][cw] > 0 {
		// Multiplicity bump; ranks already consistent.
		s.gcOut[cv][cw]++
		s.gcIn[cw][cv]++
		return
	}
	s.gcOut[cv][cw] = 1
	s.gcIn[cw][cv] = 1
	rv, rw := s.rank[cv], s.rank[cw]
	if rv > rw {
		return // Fig. 7 line 3: order already correct
	}
	// Fig. 7 line 5: bounded bidirectional search. Forward from cw keeps
	// ranks ≥ rank(cv) (only cv itself has rank(cv)); backward from cv
	// keeps ranks ≤ rank(cw).
	affr := s.dfsGc(cw, true, func(z CompID) bool { return s.rank[z] >= rv })
	affl := s.dfsGc(cv, false, func(z CompID) bool { return s.rank[z] <= rw })
	cand := make([]CompID, 0, len(affr)+len(affl))
	for z := range affr {
		cand = append(cand, z)
	}
	for z := range affl {
		if !affr[z] {
			cand = append(cand, z)
		}
	}
	slices.Sort(cand)
	// Fig. 7 line 6: Tarjan on the affected area (new edge included, it is
	// already in gcOut).
	t := s.runGc(cand)
	var cycle []CompID
	for i := 0; i < t.numComps(); i++ {
		if comp := t.comp(i); len(comp) > 1 {
			for _, z := range comp {
				cycle = append(cycle, cand[z])
			}
			break // all cycles pass through (cv,cw): at most one non-singleton
		}
	}
	scratchPool.Put(t)
	pool := make([]float64, 0, len(cand))
	for _, z := range cand {
		pool = append(pool, s.rank[z])
	}
	sort.Float64s(pool)
	if cycle == nil {
		s.reallocRank(affr, affl, pool)
		return
	}
	s.mergeComps(cycle, affr, affl, pool, dt)
}

// byRank returns the members of set \ excl sorted by ascending rank.
func (s *State) byRank(set map[CompID]bool, excl map[CompID]bool) []CompID {
	out := make([]CompID, 0, len(set))
	for c := range set {
		if excl == nil || !excl[c] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return s.rank[out[i]] < s.rank[out[j]] })
	return out
}

// reallocRank implements Fig. 7 line 9: the pooled old ranks are reassigned
// in ascending order, first to aff_r (the forward region, which must sink
// below), then to aff_l, preserving relative order inside each region.
func (s *State) reallocRank(affr, affl map[CompID]bool, pool []float64) {
	rs := s.byRank(affr, nil)
	ls := s.byRank(affl, nil)
	i := 0
	for _, c := range rs {
		s.rank[c] = pool[i]
		i++
		s.meter.AddEntries(1)
	}
	for _, c := range ls {
		s.rank[c] = pool[i]
		i++
		s.meter.AddEntries(1)
	}
}

// mergeComps merges the cycle components into one (Fig. 7 lines 7–8),
// placing the merged node between the forward and backward regions and
// retiring surplus rank values.
func (s *State) mergeComps(cycle []CompID, affr, affl map[CompID]bool, pool []float64, dt *deltaTracker) {
	cycleSet := make(map[CompID]bool, len(cycle))
	for _, c := range cycle {
		cycleSet[c] = true
	}
	rs := s.byRank(affr, cycleSet) // aff_r \ C
	ls := s.byRank(affl, cycleSet) // aff_l \ C
	// Reassign: aff_r\C take the smallest pool values, the merged node the
	// next one, aff_l\C the largest; the middle |C|-1 values retire.
	for i, c := range rs {
		s.rank[c] = pool[i]
		s.meter.AddEntries(1)
	}
	mergedRank := pool[len(rs)]
	for j, c := range ls {
		s.rank[c] = pool[len(pool)-len(ls)+j]
		s.meter.AddEntries(1)
	}
	for _, v := range pool[len(rs)+1 : len(pool)-len(ls)] {
		s.reg.remove(v)
	}
	// The largest component takes the others in: only their members are
	// restamped, and only their G_c edges folded into its maps.
	keep := s.largest(cycle)
	for _, c := range cycle {
		if c == keep {
			continue
		}
		for o, n := range s.gcOut[c] {
			delete(s.gcIn[o], c)
			if !cycleSet[o] {
				s.gcAdd(keep, o, n)
			}
		}
		for i, n := range s.gcIn[c] {
			delete(s.gcOut[i], c)
			if !cycleSet[i] {
				s.gcAdd(i, keep, n)
			}
		}
		dt.destroy(c, s.members[c])
		delete(s.gcOut, c)
		delete(s.gcIn, c)
		delete(s.rank, c)
		delete(s.dirty, c)
	}
	dt.keep(keep, s.members[keep])
	s.meter.AddEntries(s.union(keep, cycle))
	s.rank[keep] = mergedRank
	// The num/lowlink refresh of the merged component (Fig. 7 line 8) is
	// deferred to the next scoped Tarjan over it: a chain of k merges would
	// otherwise pay k of them over a growing component, and until then its
	// deletions go to the search.
	s.dirty[keep] = true
}
