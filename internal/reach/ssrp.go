// Package reach implements SSRP, the single-source reachability problem to
// all vertices (Section 3 of Fan, Hu & Tian, SIGMOD 2017). SSRP is the
// anchor of the paper's ∆-reductions: its incremental problem is known to
// be unbounded under unit edge deletions but bounded under unit edge
// insertions [38]. The implementation exhibits exactly that asymmetry: the
// insertion path does work proportional to |CHANGED| (the newly reachable
// nodes), while the deletion path falls back to recomputation when the
// deleted edge was load-bearing.
package reach

import (
	"fmt"
	"sort"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// SSRP maintains, for a fixed source, the set of reachable nodes.
type SSRP struct {
	g     *graph.Graph
	src   graph.NodeID
	reach map[graph.NodeID]bool
	meter *cost.Meter
}

// Build computes reachability from src with one BFS. The meter may be nil.
func Build(g *graph.Graph, src graph.NodeID, meter *cost.Meter) (*SSRP, error) {
	if !g.HasNode(src) {
		return nil, fmt.Errorf("reach: source %d not in graph", src)
	}
	s := &SSRP{g: g, src: src, reach: make(map[graph.NodeID]bool), meter: meter}
	s.rebuild()
	return s, nil
}

func (s *SSRP) rebuild() {
	s.reach = make(map[graph.NodeID]bool, len(s.reach))
	s.g.BFSFrom([]graph.NodeID{s.src}, func(v graph.NodeID, _ int) bool {
		s.meter.AddNodes(1)
		s.reach[v] = true
		return true
	})
}

// Source returns the fixed source node.
func (s *SSRP) Source() graph.NodeID { return s.src }

// Reachable reports r(v).
func (s *SSRP) Reachable(v graph.NodeID) bool { return s.reach[v] }

// NumReachable returns |{v : r(v)}|.
func (s *SSRP) NumReachable() int { return len(s.reach) }

// ApplyInsert applies a unit insertion; the returned slice lists nodes that
// became reachable. This path is bounded: its cost is O(|ΔO|) — a BFS over
// exactly the newly reachable region.
func (s *SSRP) ApplyInsert(u graph.Update) ([]graph.NodeID, error) {
	if u.Op != graph.Insert {
		return nil, fmt.Errorf("reach: ApplyInsert got %v", u)
	}
	s.g.EnsureNode(u.From, u.FromLabel)
	s.g.EnsureNode(u.To, u.ToLabel)
	if err := s.g.Apply(u); err != nil {
		return nil, err
	}
	if !s.reach[u.From] || s.reach[u.To] {
		return nil, nil
	}
	var added []graph.NodeID
	stack := []graph.NodeID{u.To}
	s.reach[u.To] = true
	added = append(added, u.To)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s.meter.AddNodes(1)
		for _, w := range s.g.SuccessorsSorted(v) {
			s.meter.AddEdges(1)
			if !s.reach[w] {
				s.reach[w] = true
				added = append(added, w)
				stack = append(stack, w)
			}
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	return added, nil
}

// ApplyDelete applies a unit deletion; the returned slice lists nodes that
// became unreachable. There is no bounded algorithm for this direction
// (Theorem 1's anchor [38]); when the deleted edge connected two reachable
// nodes the implementation recomputes from scratch.
func (s *SSRP) ApplyDelete(u graph.Update) ([]graph.NodeID, error) {
	if u.Op != graph.Delete {
		return nil, fmt.Errorf("reach: ApplyDelete got %v", u)
	}
	if err := s.g.Apply(u); err != nil {
		return nil, err
	}
	if !s.reach[u.From] || !s.reach[u.To] {
		return nil, nil
	}
	old := s.reach
	s.rebuild()
	var removed []graph.NodeID
	for v := range old {
		if !s.reach[v] {
			removed = append(removed, v)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return removed, nil
}

// Check audits the maintained set against a fresh BFS.
func (s *SSRP) Check() error {
	fresh, err := Build(s.g, s.src, nil)
	if err != nil {
		return err
	}
	if len(fresh.reach) != len(s.reach) {
		return fmt.Errorf("reach: %d reachable, fresh BFS says %d", len(s.reach), len(fresh.reach))
	}
	for v := range s.reach {
		if !fresh.reach[v] {
			return fmt.Errorf("reach: %d wrongly marked reachable", v)
		}
	}
	return nil
}
