package kws

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/history"
)

// paperGraph builds the graph G of Fig. 2 (solid edges plus the dotted
// e2 = (c2,b3) and e5 = (c1,a1); e1, e3, e4 are not yet present).
//
// Nodes: a1,a2 labeled a; b1..b4 labeled b; c1,c2 labeled c; d1,d2 labeled d.
// IDs:   a1=1 a2=2 b1=11 b2=12 b3=13 b4=14 c1=21 c2=22 d1=31 d2=32.
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	add := func(id graph.NodeID, l string) { g.AddNode(id, l) }
	add(1, "a")
	add(2, "a")
	add(11, "b")
	add(12, "b")
	add(13, "b")
	add(14, "b")
	add(21, "c")
	add(22, "c")
	add(31, "d")
	add(32, "d")
	// Edges reconstructed so that every statement of the worked Examples
	// 1–3 holds (the figure itself only names the dotted e1…e5):
	edges := [][2]graph.NodeID{
		{1, 32},  // a1 → d2
		{32, 1},  // d2 → a1  (a1,d2 strongly connected)
		{11, 21}, // b1 → c1
		{11, 1},  // b1 → a1
		{21, 1},  // c1 → a1  (e5, dotted: deleted in Example 3)
		{12, 22}, // b2 → c2
		{22, 12}, // c2 → b2
		{12, 13}, // b2 → b3
		{12, 14}, // b2 → b4
		{14, 31}, // b4 → d1
		{22, 13}, // c2 → b3 (e2, dotted: deleted in Examples 2–3)
		{13, 2},  // b3 → a2
		{2, 12},  // a2 → b2
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

var paperQuery = Query{Keywords: []string{"a", "d"}, Bound: 2}

func mustBuild(t testing.TB, g *graph.Graph, q Query) *Index {
	t.Helper()
	ix, err := Build(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestQueryValidate(t *testing.T) {
	bad := []Query{
		{},
		{Keywords: []string{"a"}, Bound: -1},
		{Keywords: []string{""}, Bound: 1},
		{Keywords: []string{"a", "a"}, Bound: 1},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Fatalf("Validate(%v) accepted bad query", q)
		}
	}
	if err := paperQuery.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOnPaperGraph(t *testing.T) {
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	// From Example 1 (before inserting e1): kdist(b2)[d] = ⟨2, b4⟩.
	if e := ix.Entry(12, 1); e.Dist != 2 || e.Next != 14 {
		t.Fatalf("kdist(b2)[d] = %+v, want dist 2 next b4", e)
	}
	// kdist(c2)[d] = ⟨⊥, nil⟩: c2 is 3 hops from any d node.
	if e := ix.Entry(22, 1); e.Dist != Unreachable || e.Next != NoNext {
		t.Fatalf("kdist(c2)[d] = %+v, want unreachable", e)
	}
	// Tb2 and Td2 are matches (roots b2 and d2); b2 reaches a2 in 2 via c2?
	// b2→c2→b3→a2 is 3; b2's a-distance is via b2→c2?… Example 1 shows Tb2
	// with branches to a and d. Verify membership only.
	if _, ok := ix.MatchAt(12); !ok {
		t.Fatalf("b2 should be a match root")
	}
	if _, ok := ix.MatchAt(32); !ok {
		t.Fatalf("d2 should be a match root")
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExample1InsertE1(t *testing.T) {
	// Example 1: inserting e1 = (b2,d1) shortens b2's d-distance from 2 to 1
	// and makes c2 a new match root with kdist(c2)[d] = ⟨2, b2⟩.
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	delta, err := ix.ApplyInsert(graph.Ins(12, 31)) // e1 = (b2,d1)
	if err != nil {
		t.Fatal(err)
	}
	if e := ix.Entry(12, 1); e.Dist != 1 || e.Next != 31 {
		t.Fatalf("after e1, kdist(b2)[d] = %+v, want ⟨1,d1⟩", e)
	}
	if e := ix.Entry(22, 1); e.Dist != 2 || e.Next != 12 {
		t.Fatalf("after e1, kdist(c2)[d] = %+v, want ⟨2,b2⟩", e)
	}
	// The paper: "a new match Tc2 is added to Q(G1)".
	foundC2 := false
	for _, m := range delta.Added {
		if m.Root == 22 {
			foundC2 = true
		}
	}
	if !foundC2 {
		t.Fatalf("c2 not reported as a new match; delta = %+v", delta)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExample2DeleteE2(t *testing.T) {
	// Example 2: after inserting e1, deleting e2 = (c2,b3) splits c2's
	// shortest path to a-nodes; c2 stops being a match root.
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	if _, err := ix.ApplyInsert(graph.Ins(12, 31)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.MatchAt(22); !ok {
		t.Fatalf("precondition: c2 must be a match after e1")
	}
	delta, err := ix.ApplyDelete(graph.Del(22, 13)) // e2 = (c2,b3)
	if err != nil {
		t.Fatal(err)
	}
	removed := false
	for _, r := range delta.Removed {
		if r == 22 {
			removed = true
		}
	}
	if !removed {
		t.Fatalf("c2 should be removed; delta = %+v", delta)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExample3BatchUpdates(t *testing.T) {
	// Example 3: batch ΔG inserts e1=(b2,d1), e3=(b2,a1), e4=(b4,b3) and
	// deletes e2=(c2,b3), e5=(c1,a1). Afterwards b4 becomes a match and c2
	// has a new match through (c2,b2,a1).
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	batch := graph.Batch{
		graph.Ins(12, 31), // e1
		graph.Ins(12, 1),  // e3 = (b2,a1)
		graph.Ins(14, 13), // e4 = (b4,b3)
		graph.Del(22, 13), // e2
		graph.Del(21, 1),  // e5
	}
	if _, err := ix.Apply(batch); err != nil {
		t.Fatal(err)
	}
	// b2's branches become (b2,a1) and (b2,d1): dists 1 and 1.
	m, ok := ix.MatchAt(12)
	if !ok || m.Dists[0] != 1 || m.Dists[1] != 1 {
		t.Fatalf("Tb2 = %+v, want dists [1 1]", m)
	}
	// Match Tb4 appears: b4→b3→a2 (dist 2) and b4→d1 (dist 1).
	m, ok = ix.MatchAt(14)
	if !ok || m.Dists[0] != 2 || m.Dists[1] != 1 {
		t.Fatalf("Tb4 = %+v, want dists [2 1]", m)
	}
	// T'c2 via (c2,b2,a1): dist 2 to a, 2 to d.
	m, ok = ix.MatchAt(22)
	if !ok || m.Dists[0] != 2 || m.Dists[1] != 2 {
		t.Fatalf("T'c2 = %+v, want dists [2 2]", m)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchTree(t *testing.T) {
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	tr, ok := ix.MatchTree(12)
	if !ok {
		t.Fatalf("b2 should have a tree")
	}
	if tr.Root != 12 || len(tr.Paths) != 2 {
		t.Fatalf("tree shape: %+v", tr)
	}
	for i, p := range tr.Paths {
		if p[0] != 12 {
			t.Fatalf("path %d does not start at root: %v", i, p)
		}
		last := p[len(p)-1]
		if g.Label(last) != paperQuery.Keywords[i] {
			t.Fatalf("path %d ends at %d labeled %q", i, last, g.Label(last))
		}
		for j := 0; j+1 < len(p); j++ {
			if !g.HasEdge(p[j], p[j+1]) {
				t.Fatalf("path %d uses missing edge (%d,%d)", i, p[j], p[j+1])
			}
		}
	}
	if len(tr.Edges()) == 0 {
		t.Fatalf("tree has no edges")
	}
	if _, ok := ix.MatchTree(22); ok {
		t.Fatalf("c2 must not be a match root before e1")
	}
}

func TestInsertWithNewNodes(t *testing.T) {
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	// Insert an edge to a brand-new d-labeled node: its predecessors gain a
	// d within bound.
	if _, err := ix.ApplyInsert(graph.InsNew(13, 100, "", "d")); err != nil {
		t.Fatal(err)
	}
	if e := ix.Entry(13, 1); e.Dist != 1 || e.Next != 100 {
		t.Fatalf("kdist(b3)[d] = %+v", e)
	}
	if e := ix.Entry(100, 1); e.Dist != 0 {
		t.Fatalf("new node d-dist = %+v", e)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyWrongOpErrors(t *testing.T) {
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	if _, err := ix.ApplyInsert(graph.Del(1, 32)); err == nil {
		t.Fatalf("ApplyInsert accepted a delete")
	}
	if _, err := ix.ApplyDelete(graph.Ins(1, 32)); err == nil {
		t.Fatalf("ApplyDelete accepted an insert")
	}
	if _, err := ix.ApplyDelete(graph.Del(1, 2)); err == nil {
		t.Fatalf("ApplyDelete accepted a missing edge")
	}
}

func TestLocalizability(t *testing.T) {
	// Theorem 3 made executable: the cost of IncKWS depends on the
	// b-neighborhood of ΔG, not on |G|. Adding disconnected ballast must
	// leave the meter untouched.
	build := func(ballast int) (int, int) {
		g := graph.New()
		// Active region: a chain c → b → a plus keyword nodes.
		g.AddNode(1, "a")
		g.AddNode(2, "b")
		g.AddNode(3, "c")
		g.AddEdge(3, 2)
		g.AddEdge(2, 1)
		for i := 0; i < ballast; i++ {
			id := graph.NodeID(1000 + i)
			g.AddNode(id, "z")
			if i > 0 {
				g.AddEdge(id-1, id)
			}
		}
		meter := &cost.Meter{}
		ix, err := Build(g, Query{Keywords: []string{"a"}, Bound: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ix.meter = meter
		if _, err := ix.Apply(graph.Batch{graph.Del(2, 1), graph.Ins(3, 1)}); err != nil {
			t.Fatal(err)
		}
		return meter.Total(), ix.Size()
	}
	smallCost, smallMatches := build(10)
	bigCost, bigMatches := build(10000)
	if smallCost != bigCost {
		t.Fatalf("IncKWS is not localizable: cost %d with ballast 10, %d with ballast 10000", smallCost, bigCost)
	}
	if smallMatches != bigMatches {
		t.Fatalf("ballast changed matches")
	}
}

func TestBatchAnswerMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := history.RandomGraph(rng, 50, 120, "a", "b", "c", "d")
	q := Query{Keywords: []string{"a", "c"}, Bound: 3}
	ans, err := BatchAnswer(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := mustBuild(t, g, q)
	if len(ans) != ix.Size() {
		t.Fatalf("BatchAnswer %d matches, index %d", len(ans), ix.Size())
	}
}

func TestMatchRootsSorted(t *testing.T) {
	g := paperGraph(t)
	ix := mustBuild(t, g, paperQuery)
	roots := ix.MatchRoots()
	for i := 1; i < len(roots); i++ {
		if roots[i-1] >= roots[i] {
			t.Fatalf("roots not sorted: %v", roots)
		}
	}
}

func TestBoundZero(t *testing.T) {
	// b = 0: only nodes carrying every keyword match — impossible for two
	// distinct keywords, possible for one.
	g := paperGraph(t)
	ix := mustBuild(t, g, Query{Keywords: []string{"a"}, Bound: 0})
	roots := ix.MatchRoots()
	if len(roots) != 2 || roots[0] != 1 || roots[1] != 2 {
		t.Fatalf("b=0 roots = %v", roots)
	}
	ix2 := mustBuild(t, g, Query{Keywords: []string{"a", "d"}, Bound: 0})
	if ix2.Size() != 0 {
		t.Fatalf("two keywords at b=0 cannot match")
	}
}

// TestWriteAnswerBytes pins the answer bytes to the fmt rendering they
// replaced, on roots with negative, one-digit and many-digit IDs.
func TestWriteAnswerBytes(t *testing.T) {
	g := graph.New()
	ids := []graph.NodeID{-1234567, -3, 7, 42, 1 << 40}
	for i, v := range ids {
		g.AddNode(v, []string{"a", "b"}[i%2])
	}
	for i := range ids {
		g.AddEdge(ids[i], ids[(i+1)%len(ids)])
	}
	ix := mustBuild(t, g, Query{Keywords: []string{"a", "b"}, Bound: 12})
	var want bytes.Buffer
	for _, r := range ix.MatchRoots() {
		m, _ := ix.MatchAt(r)
		fmt.Fprintf(&want, "root %d", r)
		for _, d := range m.Dists {
			fmt.Fprintf(&want, " %d", d)
		}
		want.WriteByte('\n')
	}
	var got bytes.Buffer
	if err := ix.WriteAnswer(&got); err != nil {
		t.Fatal(err)
	}
	if ix.Size() != len(ids) || got.String() != want.String() {
		t.Fatalf("answer of %d matches:\n%swant:\n%s", ix.Size(), got.String(), want.String())
	}
}
