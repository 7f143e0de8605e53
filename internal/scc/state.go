package scc

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// CompID identifies a strongly connected component (a node of the
// contracted graph G_c). A split or a peel mints fresh IDs for the parts
// that leave a component; the part that stays — a split's largest, the rest
// a peel leaves — keeps the component's ID, and so does the largest
// component of a merge, with its G_c maps, changing members under it. An
// ID is never reused once retired.
type CompID int64

// State is the incrementally maintained SCC state: the partition of G into
// components (partition.go), the contracted graph G_c with per-edge
// multiplicity counters and topological ranks (gcOrder, order.go), and the
// per-node Tarjan structures (num, lowlink, DFS parent — local to each
// component) that IncSCC− decides splits with (split.go).
type State struct {
	partition
	gcOrder
	// Per-node Tarjan structures over the dense index, numbered locally per
	// component. parent is the index of the DFS parent within the
	// component, -1 where there is none.
	num, low, parent []int32
	// dirty marks components whose num/lowlink structures do not describe
	// them: the component that takes others in is dirty after the merge
	// (mergeComps), because a chain of k merges would otherwise pay k
	// scoped Tarjans over a growing component; so is the remainder a peel
	// leaves (settle), whose DFS tree ran through the sides carved off; and
	// a component the searches proved intact becomes dirty (settle), because
	// the certificate could not vouch for it or the walks that failed left
	// it half repaired. A deletion in a dirty component skips the
	// certificate and goes to the search; the next scoped Tarjan over it —
	// an exhausted search budget — clears the mark. Intra-component
	// insertions do not set it: they only add paths, so a fresh certificate
	// stays sound. A DFS parent is always a predecessor in the node's own
	// component, dirty or not.
	dirty map[CompID]bool
	// sr is the scratch of the searches; from, gone, bnd and ring are
	// peel's: a closed side's members in ascending order, the members of
	// every side settle has peeled off one component, the remainder's
	// boundary while carve collects it, and the ring settle searches round.
	sr   searcher
	from []graph.NodeID
	gone []graph.NodeID
	bnd  []int32
	ring boundaryRing
	// intra, inter and dels are repairBatch's grouping of a batch: its
	// intra-component updates by component, its inter-component ones, and
	// the deletions of the group being settled.
	intra []compUpdate
	inter []graph.Update
	dels  []graph.Update
}

// Build runs Tarjan once over g and constructs the maintained state.
// The meter may be nil.
func Build(g *graph.Graph, meter *cost.Meter) *State {
	s := &State{dirty: make(map[CompID]bool)}
	s.init(g, meter)
	meter.AddNodes(g.NumNodes())
	meter.AddEdges(g.NumEdges())
	s.buildOrder()
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
	return s
}

// Graph returns the underlying graph: mutated by Apply* when the state
// owns it, by its owner alone when the state is only ever Repair-ed.
func (s *State) Graph() *graph.Graph { return s.g }

// Size returns |SCC(G)|, the number of components.
func (s *State) Size() int { return len(s.members) }

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

// MembersOf returns the members of component c in ascending order. The
// slice is the state's own and must not be modified.
func (s *State) MembersOf(c CompID) []graph.NodeID { return s.members[c] }

// ComponentsSorted returns the current partition in canonical form:
// members sorted, components ordered by smallest member. The inner slices
// are the state's own and must not be modified.
func (s *State) ComponentsSorted() [][]graph.NodeID { return s.componentsSorted() }

// Rows returns SCC(G) as rows, one member list per component: the order
// and, through AppendRow, the bytes of WriteAnswer. Each row is the state's
// own member slice, shared, never copied.
func (s *State) Rows() graph.Rows { return graph.RaggedRows(s.componentsSorted()) }

// CompareRows orders components by smallest member.
func (s *State) CompareRows(a, b []graph.NodeID) int { return cmp.Compare(a[0], b[0]) }

// AppendRow appends the answer line of row: "comp <v1> <v2> …".
func (s *State) AppendRow(dst []byte, row []graph.NodeID) []byte {
	return graph.AppendRow(dst, "comp", row)
}

// WriteAnswer serializes SCC(G) in canonical text form, one AppendRow line
// per component, members ascending, components ordered by smallest member.
// Identical partitions produce identical bytes whatever update path
// produced them; the durability layer's recovery-parity checks rely on
// this.
func (s *State) WriteAnswer(w io.Writer) error { return graph.WriteRows(w, s.Rows(), s.AppendRow) }

// CheckInvariants audits the whole state against a fresh Tarjan run: the
// partition, the index and the mirror here, then one check per half of the
// engine — G_c's counters, ranks and registry (checkOrder, order.go), and
// the per-node Tarjan structures (checkTrees, split.go). Tests call it after
// every mutation batch.
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
	if err := s.checkOrder(); err != nil {
		return err
	}
	return s.checkTrees()
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
