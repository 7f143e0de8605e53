package incgraph_test

import (
	"bytes"
	"testing"

	"incgraph"
)

// TestFacadeEndToEnd drives all four query classes through the public API
// on one small graph, exactly as the README quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	g := incgraph.NewGraph()
	for id, label := range map[incgraph.NodeID]string{
		1: "paper", 2: "author", 3: "venue", 4: "paper", 5: "author",
	} {
		g.AddNode(id, label)
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(4, 2)
	g.AddEdge(4, 5)
	g.AddEdge(2, 1) // author ↔ paper cycle

	// RPQ.
	e, err := incgraph.NewRPQ(g, "paper.author")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 3 { // (1,2),(4,2),(4,5)
		t.Fatalf("rpq matches = %v", e.Matches())
	}

	// SCC.
	s := incgraph.NewSCC(g)
	if s.Size() != 4 { // {1,2}, {3}, {4}, {5}
		t.Fatalf("scc count = %d", s.Size())
	}

	// KWS.
	ix, err := incgraph.NewKWS(g, incgraph.KWSQuery{Keywords: []string{"author", "venue"}, Bound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.MatchAt(1); !ok {
		t.Fatalf("node 1 should be a KWS root")
	}

	// ISO.
	pg := incgraph.NewGraph()
	pg.AddNode(0, "paper")
	pg.AddNode(1, "author")
	pg.AddEdge(0, 1)
	p, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	iso := incgraph.NewISO(g, p)
	if iso.Size() != 3 {
		t.Fatalf("iso matches = %d", iso.Size())
	}
	if got := incgraph.FindMatches(g, p, 0); len(got) != 3 {
		t.Fatalf("FindMatches = %d", len(got))
	}
}

func TestFacadeIncrementalFlow(t *testing.T) {
	g := incgraph.NewGraph()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	g.AddNode(3, "c")
	g.AddEdge(1, 2)

	e, err := incgraph.NewRPQ(g, "a.b.c")
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Apply(incgraph.Batch{incgraph.Ins(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0] != (incgraph.RPQPair{Src: 1, Dst: 3}) {
		t.Fatalf("delta = %+v", d)
	}
}

func TestFacadeSSRPAndSCCBaseline(t *testing.T) {
	g := incgraph.NewGraph()
	g.AddNode(1, "x")
	g.AddNode(2, "x")
	g.AddEdge(1, 2)
	s, err := incgraph.NewSSRP(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Reachable(2) {
		t.Fatalf("2 should be reachable")
	}
	if comps := incgraph.SCCOf(g); len(comps) != 2 {
		t.Fatalf("SCCOf = %v", comps)
	}
}

func TestFacadeGenerators(t *testing.T) {
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{Nodes: 100, Edges: 200, Labels: 5, Seed: 1})
	if g.NumNodes() != 100 {
		t.Fatalf("|V| = %d", g.NumNodes())
	}
	batch := incgraph.RandomUpdates(g, incgraph.UpdateSpec{Count: 20, InsertRatio: 0.5, Seed: 2})
	if len(batch) != 20 {
		t.Fatalf("|ΔG| = %d", len(batch))
	}
	if err := g.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := incgraph.Dataset("dbpedia", 0.01, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := incgraph.NewGraph()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := incgraph.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := incgraph.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatalf("round trip failed")
	}
}

func TestFacadeMeter(t *testing.T) {
	g := incgraph.NewGraph()
	g.AddNode(1, "a")
	g.AddNode(2, "a")
	g.AddEdge(1, 2)
	m := &incgraph.Meter{}
	if _, err := incgraph.NewKWSMetered(g, incgraph.KWSQuery{Keywords: []string{"a"}, Bound: 2}, m); err != nil {
		t.Fatal(err)
	}
	if m.Total() == 0 {
		t.Fatalf("meter did not record work")
	}
}

func TestFacadeQueryGenerators(t *testing.T) {
	g, err := incgraph.Dataset("livej", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := incgraph.RandomKWSQuery(g, 3, 2, 1)
	if err != nil || len(q.Keywords) != 3 {
		t.Fatalf("RandomKWSQuery: %v %v", q, err)
	}
	ast, err := incgraph.RandomRPQQuery(g, 4, 1)
	if err != nil || ast.Size() != 4 {
		t.Fatalf("RandomRPQQuery: %v %v", ast, err)
	}
	p, err := incgraph.RandomISOPattern(g, 4, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Size(); n != 4 {
		t.Fatalf("RandomISOPattern size = %d", n)
	}
	// The generated artifacts must actually run.
	if _, err := incgraph.NewKWS(g.Clone(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := incgraph.NewRPQFromAst(g.Clone(), ast); err != nil {
		t.Fatal(err)
	}
	incgraph.NewISO(g.Clone(), p)
}

func TestFacadeKWSBoundExtension(t *testing.T) {
	g := incgraph.NewGraph()
	g.AddNode(1, "a")
	g.AddNode(2, "x")
	g.AddNode(3, "k")
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	ix, err := incgraph.NewKWS(g, incgraph.KWSQuery{Keywords: []string{"k"}, Bound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 2 { // nodes 2 and 3
		t.Fatalf("b=1 matches = %v", ix.MatchRoots())
	}
	d, err := ix.ExtendBound(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0].Root != 1 {
		t.Fatalf("extension delta = %+v", d)
	}
	roots, err := ix.MatchRootsWithin(1)
	if err != nil || len(roots) != 2 {
		t.Fatalf("MatchRootsWithin(1) = %v %v", roots, err)
	}
}
