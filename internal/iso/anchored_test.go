package iso

import (
	"math/rand"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/history"
)

func TestEnumerateAnchoredBasics(t *testing.T) {
	g := graph.New()
	for i, l := range []string{"a", "b", "c", "b"} {
		g.AddNode(graph.NodeID(i), l)
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 2)
	p := PathPattern("a", "b", "c")
	// Anchor pattern edge (0→1) on graph edge (0→1): exactly one match.
	var got []Match
	EnumerateAnchored(g, p, map[graph.NodeID]graph.NodeID{0: 0, 1: 1}, nil, func(m Match) bool {
		got = append(got, m)
		return true
	})
	if len(got) != 1 || got[0][1] != 1 {
		t.Fatalf("anchored matches = %v", got)
	}
	// Infeasible anchor (label mismatch) yields nothing.
	got = nil
	EnumerateAnchored(g, p, map[graph.NodeID]graph.NodeID{0: 1, 1: 0}, nil, func(m Match) bool {
		got = append(got, m)
		return true
	})
	if len(got) != 0 {
		t.Fatalf("infeasible anchor matched: %v", got)
	}
	// Anchor on a pair with no connecting graph edge yields nothing.
	got = nil
	EnumerateAnchored(g, p, map[graph.NodeID]graph.NodeID{0: 0, 1: 3, 2: 1}, nil, func(m Match) bool {
		got = append(got, m)
		return true
	})
	// 0→3 exists and 3→1 does not: pattern edge (1,2) maps to (3,1) missing.
	if len(got) != 0 {
		t.Fatalf("broken anchor matched: %v", got)
	}
}

func TestAnchoredAgreesWithFullEnumeration(t *testing.T) {
	// Property: the union over all (pattern edge × graph edge) anchored
	// enumerations equals the full match set.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		g := history.RandomGraph(rng, 14, 35, "a", "b")
		p := PathPattern("a", "b", "a")
		want := make(map[string]bool)
		for _, m := range FindAll(g, p, 0, nil) {
			want[m.Key()] = true
		}
		got := make(map[string]bool)
		pg := p.Graph()
		g.Edges(func(ge graph.Edge) bool {
			pg.Edges(func(pe graph.Edge) bool {
				if pg.Label(pe.From) != g.Label(ge.From) || pg.Label(pe.To) != g.Label(ge.To) {
					return true
				}
				anchor := map[graph.NodeID]graph.NodeID{pe.From: ge.From}
				if pe.From != pe.To {
					anchor[pe.To] = ge.To
				}
				EnumerateAnchored(g, p, anchor, nil, func(m Match) bool {
					got[m.Key()] = true
					return true
				})
				return true
			})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: anchored union %d matches, full %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: anchored union missed %s", trial, k)
			}
		}
	}
}

func TestAnchoredSelfLoop(t *testing.T) {
	pg := graph.New()
	pg.AddNode(0, "a")
	pg.AddNode(1, "b")
	pg.AddEdge(0, 0)
	pg.AddEdge(0, 1)
	p := MustPattern(pg)
	g := graph.New()
	g.AddNode(5, "a")
	g.AddNode(6, "b")
	g.AddEdge(5, 5)
	g.AddEdge(5, 6)
	var got []Match
	EnumerateAnchored(g, p, map[graph.NodeID]graph.NodeID{0: 5}, nil, func(m Match) bool {
		got = append(got, m)
		return true
	})
	if len(got) != 1 {
		t.Fatalf("self-loop anchored matches = %v", got)
	}
	// IncISO insertion of a self-loop edge through the index path.
	g2 := graph.New()
	g2.AddNode(5, "a")
	g2.AddNode(6, "b")
	g2.AddEdge(5, 6)
	ix := Build(g2, p, nil)
	if ix.Size() != 0 {
		t.Fatalf("premature match")
	}
	d, err := ix.Apply(graph.Batch{graph.Ins(5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 {
		t.Fatalf("self-loop insertion delta = %+v", d)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}
