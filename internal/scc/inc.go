package scc

import (
	"fmt"
	"slices"
	"sort"

	"incgraph/internal/graph"
)

// This file implements the incremental side of SCC (Section 5.3):
//
//   - IncSCC+ (ApplyInsert, Fig. 7): an intra-component insertion refreshes
//     num/lowlink with a Tarjan pass scoped to the component; an
//     inter-component insertion that respects topological ranks only bumps
//     a counter of G_c; a rank violation triggers the bounded bidirectional
//     search DFSf/DFSb over G_c, cycle detection with Tarjan on the
//     affected area, merging, and reallocRank.
//   - IncSCC− (ApplyDelete): an inter-component deletion decrements a G_c
//     counter; an intra-component deletion of a non-tree edge first runs
//     the chkReach lowlink walk (cost proportional to the affected path),
//     falling back to a component-scoped Tarjan that performs the split.
//   - IncSCC  (Apply): batch updates, grouping all intra-component updates
//     of one component into a single scoped Tarjan pass and then handling
//     inter-component updates against G_c.
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

// Empty reports whether the output was unaffected.
func (d Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// deltaTracker accumulates component births and deaths across one Apply.
// CompIDs are minted in increasing order, so a component was born in this
// batch exactly when its ID is at least the first one the batch minted.
type deltaTracker struct {
	base      CompID
	born      []CompID
	destroyed [][]graph.NodeID
}

func (s *State) newDeltaTracker() *deltaTracker { return &deltaTracker{base: s.next} }

func (dt *deltaTracker) destroy(c CompID, members []graph.NodeID) {
	if c >= dt.base {
		return // born and died within this batch: invisible
	}
	dt.destroyed = append(dt.destroyed, members)
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
// intra-component updates are grouped per component (one scoped Tarjan
// each), then inter-component deletions update G_c counters, then
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
	// one scoped Tarjan decides refresh vs split.
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
		if len(dels) == 0 {
			continue // insertions alone never change the partition
		}
		// chkReach the deletions together: each walk repairs the lowlinks
		// its deletion invalidated; surviving certificates mean no split
		// and no Tarjan at all. Tree-arc deletions break the DFS tree the
		// certificate rests on, so they force the full pass.
		intact := !s.dirty[c]
		for i := 0; intact && i < len(dels); i++ {
			intact = s.chkReach(dels[i], c)
		}
		if !intact {
			s.repair(c, dt)
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
	// Intra-component deletion. A stale (dirty) component goes straight to
	// the scoped Tarjan, which also settles the deferred refresh; a fresh
	// one tries chkReach first.
	if s.dirty[cv] || !s.chkReach(u, cv) {
		s.repair(cv, dt)
	}
	return nil
}

// chkReach handles the already applied deletion u inside the fresh
// component c without a Tarjan pass where it can: a non-tree edge repairs
// lowlinks along the ancestor path, a tree arc — which breaks the DFS tree
// the certificate rests on — is re-parented first. It reports whether the
// certificate survived, i.e. the component is intact and nothing else
// changes; otherwise the caller runs the scoped pass.
func (s *State) chkReach(u graph.Update, c CompID) bool {
	v, w := s.idx.Of(u.From), s.idx.Of(u.To)
	if s.parent[w] == v {
		return !s.noRepair && s.tryRepairTreeArc(v, w, c)
	}
	return s.lowlinkWalkIntact(v, c)
}

// repair runs the component-scoped Tarjan over c and either refreshes its
// num/lowlink structures (still one component) or splits it.
func (s *State) repair(c CompID, dt *deltaTracker) {
	delete(s.dirty, c)
	s.runScoped(c)
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
	s.desc = append(s.desc, 1)
	s.parent = append(s.parent, -1)
	dt.create(id)
	s.meter.AddEntries(1)
}

// gcDecrement lowers the multiplicity of G_c edge (cv, cw), removing it at
// zero. Removing edges can never violate the rank invariant.
func (s *State) gcDecrement(cv, cw CompID) {
	s.meter.AddEntries(1)
	if n := s.gcOut[cv][cw]; n > 1 {
		s.gcOut[cv][cw] = n - 1
		s.gcIn[cw][cv] = n - 1
	} else {
		delete(s.gcOut[cv], cw)
		delete(s.gcIn[cw], cv)
	}
}

// store installs the last scoped run's num/lowlink/parent/desc for every
// node it covered. Parent pointers crossing component boundaries (possible
// after a split) are dropped.
func (s *State) store() {
	t := &s.t
	for _, v := range t.order {
		s.num[v] = t.num[v]
		s.low[v] = t.low[v]
		s.desc[v] = t.desc[v]
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

// tryRepairTreeArc handles the deletion of tree arc (v, w) without a full
// Tarjan pass: it re-parents w to another in-neighbor x in the same
// component with num(x) < num(w) (the smallest such NodeID, so the choice
// does not depend on how the adjacency is stored), then repairs lowlinks
// upward from both the old parent (which lost a child) and the new one
// (which gained one).
//
// Soundness: num strictly increases along tree edges after any Tarjan pass,
// and choosing num(x) < num(w) preserves that invariant, so the tree
// remains an acyclic spanning arborescence of real edges rooted at the
// component root. The surviving certificate "low < num for every non-root"
// then still witnesses strong connectivity: each node reaches a lower-num
// node through real edges, hence the root by induction, and the root
// reaches everyone through the tree. (The preorder-interval property of
// desc is given up, which only weakens the split test towards conservative
// full passes — never towards wrong "intact" verdicts.)
func (s *State) tryRepairTreeArc(v, w int32, c CompID) bool {
	numW := s.num[w]
	x := int32(-1)
	for _, p := range s.pred[w] {
		s.meter.AddEdges(1)
		if s.comp[p] == c && s.num[p] < numW {
			x = p
			break
		}
	}
	if x < 0 {
		return false
	}
	s.parent[w] = x
	s.meter.AddEntries(1)
	return s.lowlinkWalkIntact(v, c) && s.lowlinkWalkIntact(x, c)
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

// splitComp replaces component c by the parts the last scoped run found
// (≥ 2 components in reverse topological order), slotting their ranks into
// the window below c's old rank and rebuilding the incident G_c edges.
func (s *State) splitComp(c CompID, dt *deltaTracker) {
	oldMembers := s.members[c]
	dt.destroy(c, oldMembers)
	k := s.t.numComps()
	ranks := s.splitRanks(c, k)
	oldRank := s.rank[c]
	// Detach c from G_c.
	for o := range s.gcOut[c] {
		delete(s.gcIn[o], c)
	}
	for i := range s.gcIn[c] {
		delete(s.gcOut[i], c)
	}
	delete(s.gcOut, c)
	delete(s.gcIn, c)
	delete(s.rank, c)
	delete(s.members, c)
	delete(s.dirty, c)
	s.reg.remove(oldRank)
	// Create the parts; reverse topological order matches ascending ranks.
	first := s.mint(oldMembers)
	for i := 0; i < k; i++ {
		id := first + CompID(i)
		s.gcOut[id] = make(map[CompID]int)
		s.gcIn[id] = make(map[CompID]int)
		s.rank[id] = ranks[i]
		s.reg.insert(ranks[i])
		dt.create(id)
	}
	s.meter.AddEntries(len(oldMembers))
	s.store()
	// Rebuild incident G_c counters: successors of members cover internal
	// part-to-part and outgoing edges; external predecessors cover
	// incoming. The parts are exactly the components minted from first on.
	for _, v := range s.t.order {
		cv := s.comp[v]
		succ := s.succ[v]
		s.meter.AddEdges(len(succ))
		for _, w := range succ {
			if cw := s.comp[w]; cw != cv {
				s.gcOut[cv][cw]++
				s.gcIn[cw][cv]++
			}
		}
		pred := s.pred[v]
		s.meter.AddEdges(len(pred))
		for _, u := range pred {
			if cu := s.comp[u]; cu < first {
				s.gcOut[cu][cv]++
				s.gcIn[cv][cu]++
			}
		}
	}
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
// restores the rank invariant (Fig. 7 lines 3–9). It returns the merged
// component's ID when a cycle forced a merge, else nil.
func (s *State) processInterInsert(cv, cw CompID, dt *deltaTracker) *CompID {
	s.meter.AddEntries(1)
	if s.gcOut[cv][cw] > 0 {
		// Multiplicity bump; ranks already consistent.
		s.gcOut[cv][cw]++
		s.gcIn[cw][cv]++
		return nil
	}
	s.gcOut[cv][cw] = 1
	s.gcIn[cw][cv] = 1
	rv, rw := s.rank[cv], s.rank[cw]
	if rv > rw {
		return nil // Fig. 7 line 3: order already correct
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
		return nil
	}
	id := s.mergeComps(cycle, affr, affl, pool, dt)
	return &id
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
func (s *State) mergeComps(cycle []CompID, affr, affl map[CompID]bool, pool []float64, dt *deltaTracker) CompID {
	cycleSet := make(map[CompID]bool, len(cycle))
	for _, c := range cycle {
		cycleSet[c] = true
	}
	rs := s.byRank(affr, cycleSet) // aff_r \ C
	ls := s.byRank(affl, cycleSet) // aff_l \ C
	// Reassign: aff_r\C take the smallest pool values, the merged node the
	// next one, aff_l\C the largest; the middle |C|-1 values retire.
	for _, v := range pool {
		s.reg.remove(v)
	}
	for i, c := range rs {
		s.rank[c] = pool[i]
		s.reg.insert(pool[i])
		s.meter.AddEntries(1)
	}
	mergedRank := pool[len(rs)]
	for j, c := range ls {
		v := pool[len(pool)-len(ls)+j]
		s.rank[c] = v
		s.reg.insert(v)
		s.meter.AddEntries(1)
	}
	// Build the merged component.
	newOut := make(map[CompID]int)
	newIn := make(map[CompID]int)
	for _, c := range cycle {
		for o, n := range s.gcOut[c] {
			delete(s.gcIn[o], c)
			if !cycleSet[o] {
				newOut[o] += n
			}
		}
		for i, n := range s.gcIn[c] {
			delete(s.gcOut[i], c)
			if !cycleSet[i] {
				newIn[i] += n
			}
		}
		dt.destroy(c, s.members[c])
		delete(s.gcOut, c)
		delete(s.gcIn, c)
		delete(s.rank, c)
		delete(s.dirty, c)
	}
	id, members := s.union(cycle)
	s.gcOut[id] = newOut
	s.gcIn[id] = newIn
	for o, n := range newOut {
		s.gcIn[o][id] = n
	}
	for i, n := range newIn {
		s.gcOut[i][id] = n
	}
	s.rank[id] = mergedRank
	s.reg.insert(mergedRank)
	dt.create(id)
	s.meter.AddEntries(len(members))
	// The num/lowlink refresh of the new component (Fig. 7 line 8) is
	// deferred to the next deletion inside it: a chain of k merges would
	// otherwise pay k scoped Tarjans over a growing component.
	s.dirty[id] = true
	return id
}
