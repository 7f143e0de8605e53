package scc

import (
	"cmp"
	"fmt"
	"slices"

	"incgraph/internal/graph"
)

// This file holds the incremental entry points of SCC (Section 5.3) and
// the ΔO they publish. The paper's two algorithms live one file each:
//
//   - IncSCC+ (Fig. 7), order.go: G_c kept in topological rank order. An
//     intra-component insertion changes nothing but the mirror (it only
//     adds paths, so the lowlink certificate stays sound); an
//     inter-component insertion that respects topological ranks only bumps
//     a counter of G_c; a rank violation triggers the bounded bidirectional
//     search DFSf/DFSb over G_c, cycle detection with Tarjan on the
//     affected area, merging, and reallocRank. An inter-component deletion
//     decrements a G_c counter.
//   - IncSCC−, split.go: an intra-component deletion (v, w) leaves the
//     component C whole iff v still reaches w inside C (any old path
//     through (v, w) reroutes through the new one). A fresh component first
//     tries the chkReach lowlink walk (cost proportional to the affected
//     path) on a non-tree edge; where that certificate cannot vouch — a
//     tree arc, a lowlink that reached its own num, a dirty component — a
//     bidirectional search decides exactly. A search that fails because one
//     of its sides ran dry has that side, the smaller side of the split,
//     closed: it is carved off as fresh components by a Tarjan over it
//     alone (peel), C keeps the rest under its own CompID, and searches
//     between the boundary nodes of the rest decide whether the rest is
//     still one component, peeling each further side that runs dry. A
//     component-scoped Tarjan runs only once the searches have expanded as
//     many nodes as C has members; its largest part keeps C's CompID too.
//     The parts' ranks are slotted into C's window in order.go.
//
// Here, batch IncSCC (Repair, Apply) groups all intra-component updates of
// one component into one decision (settle: certificate, then searches and
// peels, then at most one scoped Tarjan) and then handles inter-component
// updates against G_c, where a merge folds the smaller components into the
// largest. IncSCCn (ApplyUnitwise, and ApplyInsert and ApplyDelete for one
// update) is the same repair run once per update.
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
	if u.Op != graph.Insert {
		return Delta{}, fmt.Errorf("scc: ApplyInsert got %v", u)
	}
	return s.ApplyUnitwise(graph.Batch{u})
}

// ApplyDelete processes a unit edge deletion with IncSCC−.
func (s *State) ApplyDelete(u graph.Update) (Delta, error) {
	if u.Op != graph.Delete {
		return Delta{}, fmt.Errorf("scc: ApplyDelete got %v", u)
	}
	return s.ApplyUnitwise(graph.Batch{u})
}

// ApplyUnitwise is IncSCCn: unit updates processed one at a time, each
// applied to the graph and then repaired as a batch of one. It stops at the
// first update the graph rejects, leaving the updates before it applied.
func (s *State) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	dt := s.newDeltaTracker()
	for i, u := range batch {
		if err := s.g.Apply(u); err != nil {
			return Delta{}, err
		}
		unit := batch[i : i+1] // its own normal form
		s.repairBatch(unit, unit, dt)
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
	s.repairBatch(batch, norm, dt)
	return dt.delta(s)
}

// repairBatch is Repair's body, recording ΔO in dt.
func (s *State) repairBatch(batch, norm graph.Batch, dt *deltaTracker) {
	// Node creation is a side effect of insertions even when the edge is
	// later cancelled by a deletion, so it runs on the raw batch.
	for _, u := range batch {
		if u.Op == graph.Insert {
			s.ensureNode(u.From, dt)
			s.ensureNode(u.To, dt)
		}
	}
	// Classify against the component map at batch start: the intra-component
	// updates tagged with their component and stably sorted by it, so each
	// component's updates are one run in batch order; the rest in batch
	// order.
	intra, inter := s.intra[:0], s.inter[:0]
	for _, u := range norm {
		if cv := s.compOf(u.From); cv == s.compOf(u.To) {
			intra = append(intra, compUpdate{cv, u})
		} else {
			inter = append(inter, u)
		}
	}
	slices.SortStableFunc(intra, func(x, y compUpdate) int { return cmp.Compare(x.c, y.c) })
	// (a) Intra-component updates, grouped: apply the group's edges, then
	// decide once whether the deletions split the component.
	for i := 0; i < len(intra); {
		c := intra[i].c
		dels := s.dels[:0]
		for ; i < len(intra) && intra[i].c == c; i++ {
			s.applyEdge(intra[i].u)
			if intra[i].u.Op == graph.Delete {
				dels = append(dels, intra[i].u)
			}
		}
		s.dels = dels
		if len(dels) > 0 { // insertions alone never split
			s.settle(c, dels, dt)
		}
	}
	// (b) Inter-component deletions: G_c counter maintenance.
	for _, u := range inter {
		if u.Op == graph.Delete {
			s.applyEdge(u)
			s.gcDecrement(s.compOf(u.From), s.compOf(u.To))
		}
	}
	// (c) Inter-component insertions.
	for _, u := range inter {
		if u.Op != graph.Insert {
			continue
		}
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
	s.intra, s.inter = intra, inter
}

// compUpdate is an intra-component update tagged with its component.
type compUpdate struct {
	c CompID
	u graph.Update
}

// ensureNode indexes v, a node the graph has gained since the state last
// looked, as a fresh singleton component at the top of the rank order; a
// node already indexed is left alone.
func (s *State) ensureNode(v graph.NodeID, dt *deltaTracker) {
	if _, ok := s.idx.Get(v); ok {
		return
	}
	id := s.addNode(v)
	s.addTop(id)
	s.num = append(s.num, 1)
	s.low = append(s.low, 1)
	s.parent = append(s.parent, -1)
	dt.create(id)
	s.meter.AddEntries(1)
}
