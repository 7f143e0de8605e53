package scc

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// CompID identifies a strongly connected component (a node of the
// contracted graph G_c). IDs are minted fresh on every merge/split, so a
// CompID never changes meaning.
type CompID int64

// State is the incrementally maintained SCC state: the partition of G into
// components, the per-node Tarjan structures (num, lowlink, DFS parent —
// local to each component), and the contracted graph G_c with per-edge
// multiplicity counters and topological ranks.
//
// Rank invariant: for every edge (x, y) of G_c, rank(x) > rank(y). This is
// the "r(v) > r(v′) if (v, v′) is a cross-link in G_c" invariant of Section
// 5.3, maintained by the Pearce–Kelly-style window reallocation of IncSCC+.
type State struct {
	partition
	gcOut map[CompID]map[CompID]int
	gcIn  map[CompID]map[CompID]int
	rank  map[CompID]float64
	reg   rankRegistry
	// Per-node Tarjan structures over the dense index, numbered locally per
	// component. parent is the index of the DFS parent within the
	// component, -1 where there is none.
	num, low, parent []int32
	// dirty marks components whose num/lowlink structures do not describe
	// them: a merged component is born dirty (mergeComps), because a chain
	// of k merges would otherwise pay k scoped Tarjans over a growing
	// component; so is the remainder a peel leaves (peel), whose DFS tree
	// ran through the side carved off; and a component the searches proved
	// intact becomes dirty (settle), because the certificate could not vouch
	// for it or the walks that failed left it half repaired. A deletion in a
	// dirty component skips the certificate and goes to the search; the next
	// scoped Tarjan over it — a split the peel could not finish, or an
	// exhausted search budget — clears the mark.
	// Intra-component insertions do not set it: they only add paths, so a
	// fresh certificate stays sound.
	dirty map[CompID]bool
	// sr is the scratch of the searches; from and bnd are peel's: a closed
	// side's members in ascending order, and the remainder's boundary.
	sr   searcher
	from []graph.NodeID
	bnd  []int32
}

// Build runs Tarjan once over g and constructs the maintained state.
// The meter may be nil.
func Build(g *graph.Graph, meter *cost.Meter) *State {
	s := &State{
		gcOut: make(map[CompID]map[CompID]int),
		gcIn:  make(map[CompID]map[CompID]int),
		rank:  make(map[CompID]float64),
		dirty: make(map[CompID]bool),
	}
	s.init(g, meter)
	meter.AddNodes(g.NumNodes())
	meter.AddEdges(g.NumEdges())
	// Components arrive in reverse topological order; the output index is
	// the initial topological rank ("the order of the scc ... in the output
	// sequence of Tarjan").
	for id := CompID(0); id < s.next; id++ {
		s.gcOut[id] = make(map[CompID]int)
		s.gcIn[id] = make(map[CompID]int)
		s.rank[id] = float64(id)
		s.reg.insert(float64(id))
	}
	// Adopt the global run's structures; they are consistent within each
	// component (local refreshes later renumber per component).
	n := len(s.ids)
	s.num = slices.Clone(s.t.num[:n])
	s.low = slices.Clone(s.t.low[:n])
	s.parent = make([]int32, n)
	for v, p := range s.t.parent[:n] {
		if p >= 0 && s.comp[p] != s.comp[v] {
			p = -1
		}
		s.parent[v] = p
	}
	// Contracted-graph edge counters.
	s.crossEdges(func(cv, cw CompID) {
		s.gcOut[cv][cw]++
		s.gcIn[cw][cv]++
	})
	return s
}

// Graph returns the underlying graph: mutated by Apply* when the state
// owns it, by its owner alone when the state is only ever Repair-ed.
func (s *State) Graph() *graph.Graph { return s.g }

// NumComponents returns |SCC(G)|.
func (s *State) NumComponents() int { return len(s.members) }

// CompOf returns the component of v; ok is false when v is absent.
func (s *State) CompOf(v graph.NodeID) (CompID, bool) {
	i, ok := s.idx.Get(v)
	if !ok {
		return 0, false
	}
	return s.comp[i], true
}

// SameComp reports whether v and w are in the same component.
func (s *State) SameComp(v, w graph.NodeID) bool {
	cv, okv := s.CompOf(v)
	cw, okw := s.CompOf(w)
	return okv && okw && cv == cw
}

// Rank returns the topological rank of component c.
func (s *State) Rank(c CompID) float64 { return s.rank[c] }

// MembersOf returns the members of component c in ascending order. The
// slice is the state's own and must not be modified.
func (s *State) MembersOf(c CompID) []graph.NodeID { return s.members[c] }

// ComponentsSorted returns the current partition in canonical form:
// members sorted, components ordered by smallest member. The inner slices
// are the state's own and must not be modified.
func (s *State) ComponentsSorted() [][]graph.NodeID { return s.componentsSorted() }

// WriteAnswer serializes SCC(G) in canonical text form: one line per
// component, "comp <v1> <v2> ...", members ascending, components ordered
// by smallest member. Identical partitions produce identical bytes
// whatever update path produced them; the durability layer's
// recovery-parity checks and the incgraphd answer dumps rely on this.
func (s *State) WriteAnswer(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.componentsSorted() {
		bw.WriteString("comp")
		for _, v := range c {
			bw.WriteByte(' ')
			bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(v), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}

// CheckInvariants audits the whole state against a fresh Tarjan run:
// partition, contracted-graph counters, rank invariant and registry.
// Tests call it after every mutation batch.
func (s *State) CheckInvariants() error {
	// Partition must match a fresh batch run.
	want := Components(s.g)
	got := s.ComponentsSorted()
	if len(want) != len(got) {
		return fmt.Errorf("scc: %d components, batch says %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("scc: component %d size %d, batch says %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				return fmt.Errorf("scc: component %d differs at %d: %d vs %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	// The dense index is a bijection onto the graph's nodes.
	n := s.g.NumNodes()
	if len(s.ids) != n || s.idx.Len() != n || len(s.comp) != n {
		return fmt.Errorf("scc: index covers %d/%d/%d of %d nodes", len(s.ids), s.idx.Len(), len(s.comp), n)
	}
	for i, v := range s.ids {
		if j, ok := s.idx.Get(v); !ok || int(j) != i || !s.g.HasNode(v) {
			return fmt.Errorf("scc: index entry %d (node %d) does not round-trip", i, v)
		}
	}
	// The mirror is the graph's sorted adjacency, translated.
	if len(s.succ) != n || len(s.pred) != n {
		return fmt.Errorf("scc: mirror has %d/%d rows for %d nodes", len(s.succ), len(s.pred), n)
	}
	for i, v := range s.ids {
		if err := s.checkRow("successor", v, s.succ[i], s.g.SuccessorsSorted(v)); err != nil {
			return err
		}
		if err := s.checkRow("predecessor", v, s.pred[i], s.g.PredecessorsSorted(v)); err != nil {
			return err
		}
	}
	// comp/members duals.
	count := 0
	for c, members := range s.members {
		for i, v := range members {
			if got := s.compOf(v); got != c {
				return fmt.Errorf("scc: node %d in members of %d but comp says %d", v, c, got)
			}
			if i > 0 && members[i-1] >= v {
				return fmt.Errorf("scc: members of %d not ascending at %d", c, v)
			}
			count++
		}
	}
	if count != n {
		return fmt.Errorf("scc: membership covers %d of %d nodes", count, n)
	}
	// G_c counters recomputed from scratch.
	wantOut := make(map[CompID]map[CompID]int)
	s.g.Edges(func(e graph.Edge) bool {
		cv, cw := s.compOf(e.From), s.compOf(e.To)
		if cv != cw {
			m := wantOut[cv]
			if m == nil {
				m = make(map[CompID]int)
				wantOut[cv] = m
			}
			m[cw]++
		}
		return true
	})
	for c, out := range s.gcOut {
		for o, n := range out {
			if n <= 0 {
				return fmt.Errorf("scc: non-positive counter %d on gc edge (%d,%d)", n, c, o)
			}
			if wantOut[c][o] != n {
				return fmt.Errorf("scc: gc edge (%d,%d) counter %d, want %d", c, o, n, wantOut[c][o])
			}
			if s.gcIn[o][c] != n {
				return fmt.Errorf("scc: gc in/out counters disagree on (%d,%d)", c, o)
			}
		}
	}
	for c, out := range wantOut {
		for o, n := range out {
			if s.gcOut[c][o] != n {
				return fmt.Errorf("scc: missing gc edge (%d,%d) (want counter %d)", c, o, n)
			}
		}
	}
	// Rank invariant and uniqueness.
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
	// Registry must hold exactly the rank values.
	if err := s.reg.check(seen); err != nil {
		return err
	}
	// Local Tarjan structures: present for every node, and a DFS parent
	// lies in the node's own component.
	if len(s.num) != n || len(s.low) != n || len(s.parent) != n {
		return fmt.Errorf("scc: num/low/parent cover %d/%d/%d of %d nodes",
			len(s.num), len(s.low), len(s.parent), n)
	}
	for i, p := range s.parent {
		if p >= 0 && s.comp[p] != s.comp[i] {
			return fmt.Errorf("scc: node %d has its DFS parent %d in another component", s.ids[i], s.ids[p])
		}
	}
	return nil
}

// checkRow compares a mirror row of v with the graph's sorted list: same
// length, same nodes, same order.
func (s *State) checkRow(kind string, v graph.NodeID, row []int32, want []graph.NodeID) error {
	if len(row) != len(want) {
		return fmt.Errorf("scc: %s row of %d has %d entries, graph has %d", kind, v, len(row), len(want))
	}
	for k, w := range want {
		if j, ok := s.idx.Get(w); !ok || j != row[k] {
			return fmt.Errorf("scc: %s row of %d differs at %d: index %d, graph has node %d", kind, v, k, row[k], w)
		}
	}
	return nil
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

// max returns the largest registered value, or 0 when empty.
func (r *rankRegistry) max() float64 {
	if len(r.vals) == 0 {
		return 0
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
