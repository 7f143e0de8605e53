package scc

import (
	"math/rand"
	"strings"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

func mustState(t testing.TB, g *graph.Graph) *State {
	t.Helper()
	s := Build(g, nil)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("fresh state invalid: %v", err)
	}
	return s
}

// paperGraph is the running example: the graph of Fig. 2/6, reconstructed
// to satisfy the paper's worked examples (same encoding as the KWS tests).
func paperGraph() *graph.Graph {
	g := graph.New()
	labels := map[graph.NodeID]string{
		1: "a", 2: "a", 11: "b", 12: "b", 13: "b", 14: "b",
		21: "c", 22: "c", 31: "d", 32: "d",
	}
	for v, l := range labels {
		g.AddNode(v, l)
	}
	for _, e := range [][2]graph.NodeID{
		{1, 32}, {32, 1}, // scc {a1,d2}
		{11, 21}, {11, 1}, {21, 1},
		{12, 22}, {22, 12}, // {b2,c2} strongly connected…
		{12, 13}, {13, 2}, {2, 12}, // …with b3 and a2
		{12, 14}, {14, 31},
		{22, 13},
	} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestBuildPartition(t *testing.T) {
	g := paperGraph()
	s := mustState(t, g)
	// Expected sccs: {a1=1, d2=32}, {b2=12, c2=22, b3=13, a2=2},
	// singletons b1=11, b4=14, c1=21, d1=31.
	if s.Size() != 6 {
		t.Fatalf("components = %d, want 6: %v", s.Size(), s.ComponentsSorted())
	}
	if !s.SameComp(1, 32) || !s.SameComp(12, 2) || s.SameComp(1, 12) {
		t.Fatalf("memberships wrong: %v", s.ComponentsSorted())
	}
	c, ok := s.CompOf(12)
	if !ok || len(s.MembersOf(c)) != 4 {
		t.Fatalf("scc of b2: %v", s.MembersOf(c))
	}
	if _, ok := s.CompOf(999); ok {
		t.Fatalf("phantom node has component")
	}
}

func TestRankInvariantOnBuild(t *testing.T) {
	g := paperGraph()
	s := mustState(t, g)
	// Every contracted edge must go from higher to lower rank; spot-check
	// one: c1={21} → a1's comp.
	c21, _ := s.CompOf(21)
	c1, _ := s.CompOf(1)
	if s.Rank(c21) <= s.Rank(c1) {
		t.Fatalf("rank(c1-comp)=%g must exceed rank(a1-comp)=%g", s.Rank(c21), s.Rank(c1))
	}
}

// TestCheckInvariantsNamesPlantedFault plants one fault at a time in a
// fresh state and checks that the check of the half it belongs to names it
// — G_c's counters and ranks (checkOrder), the DFS trees (checkTrees) —
// that the other half's check passes, and that CheckInvariants fails.
func TestCheckInvariantsNamesPlantedFault(t *testing.T) {
	// A = {0, 1, 2} → B = {3, 4}: one G_c edge, of multiplicity 1.
	g := mkGraph(5, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}})
	for _, tc := range []struct {
		name        string
		plant       func(s *State)
		half, other func(s *State) error
		want        string
	}{
		{"ranks swapped across a G_c edge", func(s *State) {
			a, b := s.compOf(0), s.compOf(3)
			s.rank[a], s.rank[b] = s.rank[b], s.rank[a]
		}, (*State).checkOrder, (*State).checkTrees, "rank invariant broken"},
		{"a G_c counter off by one", func(s *State) {
			a, b := s.compOf(0), s.compOf(3)
			s.gcOut[a][b]++
			s.gcIn[b][a]++
		}, (*State).checkOrder, (*State).checkTrees, "counter 2, want 1"},
		{"a DFS parent that is not a predecessor", func(s *State) {
			s.parent[s.idx.Of(0)] = s.idx.Of(1) // 0's one predecessor is 2
		}, (*State).checkTrees, (*State).checkOrder, "not a predecessor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustState(t, g)
			tc.plant(s)
			if err := tc.half(s); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("the half's check says %v, want %q", err, tc.want)
			}
			if err := tc.other(s); err != nil {
				t.Fatalf("the other half's check says %v", err)
			}
			if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants says %v, want %q", err, tc.want)
			}
		})
	}
}

func TestExample7InsertMergesComponents(t *testing.T) {
	// Example 7: inserting e4 = (b4,b3) merges b4's component with the big
	// one, because b4's rank is below b3's and a cycle b4→b3→…→b2→b4 forms.
	g := paperGraph()
	s := mustState(t, g)
	delta, err := s.ApplyInsert(graph.Ins(14, 13))
	if err != nil {
		t.Fatal(err)
	}
	if !s.SameComp(14, 13) || !s.SameComp(14, 12) {
		t.Fatalf("merge did not happen: %v", s.ComponentsSorted())
	}
	if len(delta.Added) != 1 || len(delta.Added[0]) != 5 {
		t.Fatalf("delta added = %v", delta.Added)
	}
	if len(delta.Removed) != 2 {
		t.Fatalf("delta removed = %v", delta.Removed)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRespectingRanksIsCheap(t *testing.T) {
	// Inserting an edge that already respects topological order must not
	// change the output and must not trigger any search.
	g := paperGraph()
	s := mustState(t, g)
	before := s.ComponentsSorted()
	delta, err := s.ApplyInsert(graph.Ins(21, 32)) // c1 → d2: rank(c1) > rank(a1,d2)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Len() != 0 {
		t.Fatalf("unexpected delta %+v", delta)
	}
	if !partitionsEqual(before, s.ComponentsSorted()) {
		t.Fatalf("partition changed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertIntraComponent(t *testing.T) {
	g := paperGraph()
	s := mustState(t, g)
	delta, err := s.ApplyInsert(graph.Ins(2, 22)) // a2 → c2, inside the big scc
	if err != nil {
		t.Fatal(err)
	}
	if delta.Len() != 0 {
		t.Fatalf("intra insert changed output: %+v", delta)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExample9DeleteSplitsComponent(t *testing.T) {
	// Example 9 (adapted): deleting an edge of a 2-cycle splits the
	// component {a1,d2} into singletons.
	g := paperGraph()
	s := mustState(t, g)
	delta, err := s.ApplyDelete(graph.Del(32, 1)) // d2 → a1
	if err != nil {
		t.Fatal(err)
	}
	if s.SameComp(1, 32) {
		t.Fatalf("split did not happen")
	}
	if len(delta.Removed) != 1 || len(delta.Added) != 2 {
		t.Fatalf("delta = %+v", delta)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFrondNoSplit(t *testing.T) {
	// Deleting a redundant edge inside an scc keeps it intact and must take
	// the lowlink fast path (no partition change).
	g := mkGraph(4, [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 0}})
	s := mustState(t, g)
	if s.Size() != 1 {
		t.Fatalf("setup: want a single scc")
	}
	delta, err := s.ApplyDelete(graph.Del(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if delta.Len() != 0 || s.Size() != 1 {
		t.Fatalf("frond deletion broke the scc: %+v", delta)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteInterComponentCounter(t *testing.T) {
	// Two parallel contracted edges: deleting one graph edge keeps the
	// contracted edge; deleting both removes it. Output never changes.
	g := mkGraph(4, [][2]int64{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {0, 2}, {1, 3}})
	s := mustState(t, g)
	if s.Size() != 2 {
		t.Fatalf("setup: want 2 sccs")
	}
	for _, e := range [][2]graph.NodeID{{0, 2}, {1, 3}} {
		delta, err := s.ApplyDelete(graph.Del(e[0], e[1]))
		if err != nil {
			t.Fatal(err)
		}
		if delta.Len() != 0 {
			t.Fatalf("inter deletion changed output")
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertWithNewNodes(t *testing.T) {
	g := mkGraph(2, [][2]int64{{0, 1}})
	s := mustState(t, g)
	delta, err := s.ApplyInsert(graph.InsNew(1, 100, "", "z"))
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Added) != 1 || delta.Added[0][0] != 100 {
		t.Fatalf("new node not reported: %+v", delta)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// New node as source: rank violation path must fire and stay correct.
	if _, err := s.ApplyInsert(graph.InsNew(200, 0, "z", "")); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoop(t *testing.T) {
	g := mkGraph(2, [][2]int64{{0, 1}})
	s := mustState(t, g)
	if _, err := s.ApplyInsert(graph.Ins(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelete(graph.Del(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitErrors(t *testing.T) {
	g := mkGraph(2, [][2]int64{{0, 1}})
	s := mustState(t, g)
	if _, err := s.ApplyInsert(graph.Del(0, 1)); err == nil {
		t.Fatalf("ApplyInsert accepted delete")
	}
	if _, err := s.ApplyDelete(graph.Ins(0, 1)); err == nil {
		t.Fatalf("ApplyDelete accepted insert")
	}
	if _, err := s.ApplyDelete(graph.Del(1, 0)); err == nil {
		t.Fatalf("deleted missing edge")
	}
	if _, err := s.ApplyInsert(graph.Ins(0, 1)); err == nil {
		t.Fatalf("inserted duplicate edge")
	}
}

func TestExample8BatchUpdates(t *testing.T) {
	// Example 8: the batch of Example 3 — insert e1=(b2,d1), e3=(b2,a1),
	// e4=(b4,b3); delete e2=(c2,b3), e5=(c1,a1). Inserting e1/e3/e4 chains
	// the components together: all previous sccs except {d2…} merge.
	g := paperGraph()
	s := mustState(t, g)
	batch := graph.Batch{
		graph.Ins(12, 31),
		graph.Ins(12, 1),
		graph.Ins(14, 13),
		graph.Del(22, 13),
		graph.Del(21, 1),
	}
	if _, err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Verify against batch recomputation (the ground truth).
	if !partitionsEqual(s.ComponentsSorted(), Components(s.Graph())) {
		t.Fatalf("batch result differs from Tarjan recompute")
	}
}

func TestLongUpdateSequence(t *testing.T) {
	// Many consecutive unit updates with invariant checks along the way:
	// this exercises repeated splits/merges and the rank registry.
	rng := rand.New(rand.NewSource(42))
	g := graph.New()
	n := 18
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	for i := 0; i < 30; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	s := mustState(t, g)
	for step := 0; step < 300; step++ {
		v := graph.NodeID(rng.Intn(n))
		w := graph.NodeID(rng.Intn(n))
		if g.HasEdge(v, w) {
			if _, err := s.ApplyDelete(graph.Del(v, w)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		} else {
			if _, err := s.ApplyInsert(graph.Ins(v, w)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if step%25 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaAccumulation(t *testing.T) {
	// A merge followed by a split within one batch must not report the
	// transient component.
	g := mkGraph(4, [][2]int64{{0, 1}, {1, 0}, {2, 3}, {3, 2}})
	s := mustState(t, g)
	batch := graph.Batch{
		graph.Ins(1, 2), graph.Ins(3, 0), // merge all four
		graph.Del(1, 2), // split again
	}
	delta, err := s.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Normalized batch cancels nothing here; final state: {0,1} and {2,3}
	// with edge 3→0. Output partition is unchanged overall.
	if s.Size() != 2 {
		t.Fatalf("components = %d", s.Size())
	}
	// The delta must net out: any added component must currently exist.
	for _, c := range delta.Added {
		id, ok := s.CompOf(c[0])
		if !ok {
			t.Fatalf("added component %v does not exist", c)
		}
		if len(s.MembersOf(id)) != len(c) {
			t.Fatalf("added component %v stale", c)
		}
	}
}

func TestRelativeBoundednessSmoke(t *testing.T) {
	// IncSCC's work on a rank-respecting insertion must not scale with |G|:
	// the affected area is empty, so the meter should stay flat while the
	// graph grows by orders of magnitude.
	run := func(extra int) int {
		g := graph.New()
		g.AddNode(0, "x")
		g.AddNode(1, "x")
		for i := 0; i < extra; i++ {
			id := graph.NodeID(10 + i)
			g.AddNode(id, "x")
			if i > 0 {
				g.AddEdge(id-1, id)
			}
		}
		s := Build(g, nil)
		m := &cost.Meter{}
		s.meter = m
		if _, err := s.ApplyInsert(graph.Ins(1, 0)); err != nil {
			// Depending on build order ranks may already satisfy the edge;
			// in either case the insert must succeed.
			t.Fatal(err)
		}
		return m.Total()
	}
	small := run(10)
	big := run(5000)
	// The affected window is tiny in both cases; allow a small constant
	// wobble but nothing proportional to |G|.
	if big > small+16 {
		t.Fatalf("inter insert cost grew with |G|: %d vs %d", small, big)
	}
}

func TestCondensationAndTopologicalOrder(t *testing.T) {
	g := paperGraph()
	s := mustState(t, g)
	gc := s.Condensation()
	if gc.NumNodes() != s.Size() {
		t.Fatalf("condensation nodes = %d, want %d", gc.NumNodes(), s.Size())
	}
	// The condensation must be a DAG: Tarjan on it gives only singletons.
	for _, comp := range Components(gc) {
		if len(comp) > 1 {
			t.Fatalf("condensation has a cycle: %v", comp)
		}
	}
	// Topological order: every contracted edge goes forward.
	order := s.TopologicalComponents()
	pos := make(map[CompID]int, len(order))
	for i, c := range order {
		pos[c] = i
	}
	gc.Edges(func(e graph.Edge) bool {
		if pos[CompID(e.From)] >= pos[CompID(e.To)] {
			t.Fatalf("edge (%d,%d) violates topological order", e.From, e.To)
		}
		return true
	})
	// It stays valid after updates.
	if _, err := s.ApplyInsert(graph.Ins(14, 13)); err != nil {
		t.Fatal(err)
	}
	order = s.TopologicalComponents()
	if len(order) != s.Size() {
		t.Fatalf("order misses components")
	}
}
