package iso

import (
	"bytes"
	"fmt"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

func TestPatternValidation(t *testing.T) {
	if _, err := NewPattern(graph.New()); err == nil {
		t.Fatalf("empty pattern accepted")
	}
	g := graph.New()
	g.AddNode(0, "a")
	g.AddNode(1, "b") // disconnected
	if _, err := NewPattern(g); err == nil {
		t.Fatalf("disconnected pattern accepted")
	}
	g.AddEdge(0, 1)
	p, err := NewPattern(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Diameter() != 1 {
		t.Fatalf("diameter = %d", p.Diameter())
	}
	vq, eq := p.Size()
	if vq != 2 || eq != 1 {
		t.Fatalf("size = (%d,%d)", vq, eq)
	}
}

func TestPathPatternMatching(t *testing.T) {
	g := graph.New()
	for i, l := range []string{"a", "b", "c", "b"} {
		g.AddNode(graph.NodeID(i), l)
	}
	g.AddEdge(0, 1) // a→b
	g.AddEdge(1, 2) // b→c
	g.AddEdge(0, 3) // a→b (second b)
	g.AddEdge(3, 2) // b→c
	p := PathPattern("a", "b", "c")
	ms := FindAll(g, p, 0, nil)
	if len(ms) != 2 {
		t.Fatalf("matches = %v", ms)
	}
	for _, m := range ms {
		if err := p.Verify(g, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTriangleMatching(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	p := TrianglePattern("x", "x", "x")
	ms := FindAll(g, p, 0, nil)
	// A directed 3-cycle with identical labels has 3 automorphic matches.
	if len(ms) != 3 {
		t.Fatalf("triangle matches = %d (%v)", len(ms), ms)
	}
}

func TestNonInducedSemantics(t *testing.T) {
	// Extra edges among matched nodes must not block a match (the paper's
	// G_s is the image subgraph, not the induced one).
	g := graph.New()
	g.AddNode(0, "a")
	g.AddNode(1, "b")
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // extra back edge
	p := PathPattern("a", "b")
	if ms := FindAll(g, p, 0, nil); len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
}

func TestSelfLoopPattern(t *testing.T) {
	pg := graph.New()
	pg.AddNode(0, "a")
	pg.AddEdge(0, 0)
	p := MustPattern(pg)
	g := graph.New()
	g.AddNode(1, "a")
	g.AddNode(2, "a")
	g.AddEdge(1, 1)
	if ms := FindAll(g, p, 0, nil); len(ms) != 1 || ms[0][0] != 1 {
		t.Fatalf("self-loop matches = %v", ms)
	}
}

func TestFindAllLimit(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode(graph.NodeID(i), "a")
	}
	pg := graph.New()
	pg.AddNode(0, "a")
	p := MustPattern(pg)
	if ms := FindAll(g, p, 3, nil); len(ms) != 3 {
		t.Fatalf("limit ignored: %d", len(ms))
	}
}

func TestStarPattern(t *testing.T) {
	g := graph.New()
	g.AddNode(0, "hub")
	g.AddNode(1, "x")
	g.AddNode(2, "y")
	g.AddNode(3, "x")
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	p := StarPattern("hub", "x", "y")
	ms := FindAll(g, p, 0, nil)
	if len(ms) != 2 { // leaf x can be 1 or 3
		t.Fatalf("star matches = %v", ms)
	}
}

func TestIncDeleteRemovesMatches(t *testing.T) {
	g := graph.New()
	for i, l := range []string{"a", "b", "c"} {
		g.AddNode(graph.NodeID(i), l)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	p := PathPattern("a", "b", "c")
	ix := Build(g, p, nil)
	if ix.Size() != 1 {
		t.Fatalf("setup: %d matches", ix.Size())
	}
	d, err := ix.Apply(graph.Batch{graph.Del(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 1 || ix.Size() != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIncInsertAddsMatches(t *testing.T) {
	g := graph.New()
	for i, l := range []string{"a", "b", "c"} {
		g.AddNode(graph.NodeID(i), l)
	}
	g.AddEdge(0, 1)
	p := PathPattern("a", "b", "c")
	ix := Build(g, p, nil)
	d, err := ix.Apply(graph.Batch{graph.Ins(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || ix.Size() != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIncInsertWithNewNodes(t *testing.T) {
	g := graph.New()
	g.AddNode(0, "a")
	p := PathPattern("a", "b")
	ix := Build(g, p, nil)
	d, err := ix.Apply(graph.Batch{graph.InsNew(0, 50, "", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 {
		t.Fatalf("delta = %+v", d)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyErrors(t *testing.T) {
	g := graph.New()
	g.AddNode(0, "a")
	g.AddNode(1, "b")
	g.AddEdge(0, 1)
	ix := Build(g, PathPattern("a", "b"), nil)
	if _, err := ix.Apply(graph.Batch{graph.Del(1, 0)}); err == nil {
		t.Fatalf("missing delete accepted")
	}
	if _, err := ix.Apply(graph.Batch{graph.Ins(0, 1)}); err == nil {
		t.Fatalf("duplicate insert accepted")
	}
}

func TestLocalizability(t *testing.T) {
	// Theorem 3 for ISO: IncISO's work is a function of the
	// d_Q-neighborhood of ΔG, independent of |G|.
	run := func(ballast int) int {
		g := graph.New()
		g.AddNode(0, "a")
		g.AddNode(1, "b")
		g.AddNode(2, "c")
		g.AddEdge(0, 1)
		for i := 0; i < ballast; i++ {
			id := graph.NodeID(1000 + i)
			g.AddNode(id, "z")
			if i > 0 {
				g.AddEdge(id-1, id)
			}
		}
		ix := Build(g, PathPattern("a", "b", "c"), nil)
		m := &cost.Meter{}
		ix.meter = m
		if _, err := ix.Apply(graph.Batch{graph.Ins(1, 2)}); err != nil {
			t.Fatal(err)
		}
		return m.Total()
	}
	small := run(10)
	big := run(5000)
	if small != big {
		t.Fatalf("IncISO not localizable: %d vs %d", small, big)
	}
}

func TestMatchKeyAndImages(t *testing.T) {
	p := PathPattern("a", "b")
	m := Match{graph.NodeID(7), graph.NodeID(9)}
	if m.Key() != "7,9" {
		t.Fatalf("key = %q", m.Key())
	}
	var es []graph.Edge
	p.EdgeImages(m, func(e graph.Edge) { es = append(es, e) })
	if len(es) != 1 || es[0] != (graph.Edge{From: 7, To: 9}) {
		t.Fatalf("edge images = %v", es)
	}
}

// TestWriteAnswerBytes pins the answer bytes to the fmt rendering they
// replaced, on matches with negative, one-digit and many-digit IDs.
func TestWriteAnswerBytes(t *testing.T) {
	g := graph.New()
	ids := []graph.NodeID{-1234567, -3, 7, 42, 1 << 40}
	for i, v := range ids {
		g.AddNode(v, []string{"a", "b"}[i%2])
	}
	for i := range ids {
		g.AddEdge(ids[i], ids[(i+1)%len(ids)])
	}
	ix := Build(g, PathPattern("a", "b"), nil)
	var want bytes.Buffer
	for _, m := range ix.Matches() {
		want.WriteString("match")
		for _, v := range m {
			fmt.Fprintf(&want, " %d", v)
		}
		want.WriteByte('\n')
	}
	var got bytes.Buffer
	if err := ix.WriteAnswer(&got); err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 2 || got.String() != want.String() {
		t.Fatalf("answer of %d matches:\n%swant:\n%s", ix.Size(), got.String(), want.String())
	}
}
