package scc

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"incgraph/internal/graph"
)

// This file is IncSCC+'s half of the engine (Fig. 7): the contracted graph
// G_c with its per-edge counters, kept in topological rank order. It is the
// one file that reads or writes them (TestArchitecture). The rest of the
// engine asks for what it needs through a few operations: G_c over Build's
// partition (buildOrder), a new component at a fresh rank (addTop), the
// parts of a split or a peel slotted into their component's window (slot),
// a counter moved (gcAdd, gcDecrement), and an inter-component insertion
// (processInterInsert), which merges the components a new cycle joins.

// gcOrder is G_c in topological rank order: per component its out- and
// in-edges with their multiplicities, its rank, and the registry of live
// ranks.
//
// Rank invariant: for every edge (x, y) of G_c, rank(x) > rank(y). This is
// the "r(v) > r(v′) if (v, v′) is a cross-link in G_c" invariant of Section
// 5.3, maintained by the Pearce–Kelly-style window reallocation of IncSCC+.
type gcOrder struct {
	gcOut map[CompID]map[CompID]int
	gcIn  map[CompID]map[CompID]int
	rank  map[CompID]float64
	reg   rankRegistry
}

// buildOrder builds G_c over the partition of Build's run. The run emits
// components in reverse topological order and CompIDs follow emission, so
// placing each on top in CompID order makes the emission index its rank
// ("the order of the scc ... in the output sequence of Tarjan").
func (s *State) buildOrder() {
	s.gcOut = make(map[CompID]map[CompID]int)
	s.gcIn = make(map[CompID]map[CompID]int)
	s.rank = make(map[CompID]float64)
	for id := CompID(0); id < s.next; id++ {
		s.addTop(id)
	}
	s.crossEdges(func(cv, cw CompID) { s.gcAdd(cv, cw, 1) })
}

// addTop adds c, a component without G_c edges, at a fresh rank above
// every other: any unique rank keeps the invariant, the top trivially.
func (s *State) addTop(c CompID) {
	r := s.reg.max() + 1
	s.gcOut[c] = make(map[CompID]int)
	s.gcIn[c] = make(map[CompID]int)
	s.rank[c] = r
	s.reg.insert(r)
}

// slot gives c and the n components minted from first on, parts a split or
// a peel takes out of c, n+1 ascending ranks in c's window (splitRanks): c
// the at-th, the parts the others in CompID order. The parts start without
// G_c edges; the caller moves their counters over (gcAdd). G_c must still
// be as it was before the parts were minted: a renumbering sorts it.
func (s *State) slot(c, first CompID, at int) {
	n := int(s.next - first)
	vals := s.splitRanks(c, n+1)
	for _, v := range vals[:n] { // the last value is c's rank: it stays registered
		s.reg.insert(v)
	}
	s.rank[c] = vals[at]
	for i, v := range slices.Delete(vals, at, at+1) {
		id := first + CompID(i)
		s.gcOut[id] = make(map[CompID]int)
		s.gcIn[id] = make(map[CompID]int)
		s.rank[id] = v
	}
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

// renumberAll reassigns integer ranks 0..n-1 to the ranked components by a
// topological sort of G_c. Parts a split has minted and not yet slotted
// have no rank and no G_c edges, and are left out.
func (s *State) renumberAll() {
	ids := make([]CompID, 0, len(s.rank))
	for c := range s.rank {
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

// Rank returns the topological rank of component c.
func (s *State) Rank(c CompID) float64 { return s.rank[c] }

// Condensation returns the current contracted graph G_c as a graph whose
// nodes are component IDs (labeled with the decimal member count) and whose
// edges are the contracted edges; multiplicities are dropped. The result is
// a snapshot — later updates do not affect it.
func (s *State) Condensation() *graph.Graph {
	out := graph.New()
	ids := make([]CompID, 0, len(s.members))
	for c := range s.members {
		ids = append(ids, c)
	}
	slices.Sort(ids) // ascending: every label-index add is an append
	for _, c := range ids {
		out.AddNode(graph.NodeID(c), strconv.Itoa(len(s.members[c])))
	}
	for c, adj := range s.gcOut {
		for o := range adj {
			out.AddEdge(graph.NodeID(c), graph.NodeID(o))
		}
	}
	return out
}

// TopologicalComponents returns the component IDs sorted by descending
// rank: a valid topological order of the condensation (every contracted
// edge goes from an earlier to a later element).
func (s *State) TopologicalComponents() []CompID {
	out := make([]CompID, 0, len(s.members))
	for c := range s.members {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return s.rank[out[i]] > s.rank[out[j]] })
	return out
}

// checkOrder audits G_c against the partition: every counter recounted
// over the mirror (which CheckInvariants checks against the graph first),
// both directions agreeing, one unique rank per component, the rank
// invariant on every edge, and a registry holding exactly the live ranks.
func (s *State) checkOrder() error {
	type edge struct{ from, to CompID }
	want := make(map[edge]int)
	s.crossEdges(func(cv, cw CompID) { want[edge{cv, cw}]++ })
	for c, out := range s.gcOut {
		for o, n := range out {
			if n <= 0 || want[edge{c, o}] != n {
				return fmt.Errorf("scc: gc edge (%d,%d) counter %d, want %d", c, o, n, want[edge{c, o}])
			}
			if s.gcIn[o][c] != n {
				return fmt.Errorf("scc: gc in/out counters disagree on (%d,%d)", c, o)
			}
			delete(want, edge{c, o})
		}
	}
	for e, n := range want {
		return fmt.Errorf("scc: missing gc edge (%d,%d) (want counter %d)", e.from, e.to, n)
	}
	seen := make(map[float64]CompID, len(s.rank))
	for c := range s.members {
		r, ok := s.rank[c]
		if !ok {
			return fmt.Errorf("scc: component %d has no rank", c)
		}
		if prev, dup := seen[r]; dup {
			return fmt.Errorf("scc: duplicate rank %g on %d and %d", r, prev, c)
		}
		seen[r] = c
	}
	for c, out := range s.gcOut {
		for o := range out {
			if s.rank[c] <= s.rank[o] {
				return fmt.Errorf("scc: rank invariant broken on gc edge (%d,%d): %g <= %g",
					c, o, s.rank[c], s.rank[o])
			}
		}
	}
	if len(s.rank) != len(s.members) || len(s.gcOut) != len(s.members) || len(s.gcIn) != len(s.members) {
		return fmt.Errorf("scc: gc maps out of sync with members")
	}
	return s.reg.check(seen)
}

// rankRegistry keeps the sorted multiset (in fact set) of live rank values,
// so splits can place part ranks strictly between the split component's
// rank and the next rank below it.
type rankRegistry struct {
	vals []float64 // sorted ascending
}

func (r *rankRegistry) insert(v float64) {
	i := sort.SearchFloat64s(r.vals, v)
	r.vals = append(r.vals, 0)
	copy(r.vals[i+1:], r.vals[i:])
	r.vals[i] = v
}

func (r *rankRegistry) remove(v float64) {
	i := sort.SearchFloat64s(r.vals, v)
	if i < len(r.vals) && r.vals[i] == v {
		r.vals = append(r.vals[:i], r.vals[i+1:]...)
	}
}

// predecessor returns the largest registered value strictly below v,
// or v-1 when none exists.
func (r *rankRegistry) predecessor(v float64) float64 {
	i := sort.SearchFloat64s(r.vals, v)
	if i == 0 {
		return v - 1
	}
	return r.vals[i-1]
}

// max returns the largest registered value, or -1 when empty.
func (r *rankRegistry) max() float64 {
	if len(r.vals) == 0 {
		return -1
	}
	return r.vals[len(r.vals)-1]
}

func (r *rankRegistry) check(live map[float64]CompID) error {
	if len(r.vals) != len(live) {
		return fmt.Errorf("scc: registry has %d ranks, live set has %d", len(r.vals), len(live))
	}
	for i, v := range r.vals {
		if i > 0 && r.vals[i-1] >= v {
			return fmt.Errorf("scc: registry not strictly sorted at %d", i)
		}
		if _, ok := live[v]; !ok {
			return fmt.Errorf("scc: registry value %g not live", v)
		}
	}
	return nil
}
