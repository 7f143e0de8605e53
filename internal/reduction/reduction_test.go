package reduction

import (
	"math/rand"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/reach"
	"incgraph/internal/rpq"
)

func TestFMapsReachabilityToMatches(t *testing.T) {
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddNode(graph.NodeID(i), "n")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // unreachable from 0
	inst, err := F(SSRPInstance{G: g, Src: 0})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rpq.NewEngine(inst.G, inst.Q, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := reach.Build(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Nodes(func(v graph.NodeID, _ string) bool {
		if s.Reachable(v) != e.HasMatch(0, v) {
			t.Fatalf("node %d: SSRP %v, RPQ %v", v, s.Reachable(v), e.HasMatch(0, v))
		}
		return true
	})
	if _, err := F(SSRPInstance{G: g, Src: 99}); err == nil {
		t.Fatalf("missing source accepted")
	}
}

func TestReductionCommutesUnderDeletions(t *testing.T) {
	// The ∆-reduction square: updating the SSRP instance directly and
	// updating the RPQ image via f_i, then mapping ΔO₂ back with f_o, must
	// give the same reachability changes.
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10
		g := graph.New()
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i), "n")
		}
		for i := 0; i < 18; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		inst, err := F(SSRPInstance{G: g.Clone(), Src: 0})
		if err != nil {
			t.Fatal(err)
		}
		e, err := rpq.NewEngine(inst.G, inst.Q, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := reach.Build(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			es := g.EdgesSorted()
			if len(es) == 0 {
				break
			}
			pick := es[rng.Intn(len(es))]
			du := graph.Del(pick.From, pick.To)

			removed, err := s.ApplyDelete(du)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := e.ApplyDelete(Fi(du))
			if err != nil {
				t.Fatal(err)
			}
			nowReach, nowUnreach, err := Fo(0, d2)
			if err != nil {
				t.Fatal(err)
			}
			if len(nowReach) != 0 {
				t.Fatalf("deletion made nodes reachable: %v", nowReach)
			}
			if len(nowUnreach) != len(removed) {
				t.Fatalf("seed %d step %d: fo gives %v, SSRP says %v", seed, step, nowUnreach, removed)
			}
			for i := range removed {
				if nowUnreach[i] != removed[i] {
					t.Fatalf("seed %d: fo mismatch: %v vs %v", seed, nowUnreach, removed)
				}
			}
		}
	}
}

func TestInsertionGadget(t *testing.T) {
	gad, err := NewInsertionGadget(6)
	if err != nil {
		t.Fatal(err)
	}
	e, err := rpq.NewEngine(gad.G, gad.Q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 0 {
		t.Fatalf("gadget must start with no matches")
	}
	d1, err := e.ApplyInsert(gad.BridgeAB)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Len() != 0 {
		t.Fatalf("first bridge alone changed the output: %+v", d1)
	}
	d2, err := e.ApplyInsert(gad.BridgeBC)
	if err != nil {
		t.Fatal(err)
	}
	// |ΔG| = 1 but |ΔO| = n: the unboundedness witness.
	if len(d2.Added) != gad.N {
		t.Fatalf("second bridge added %d matches, want %d", len(d2.Added), gad.N)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewInsertionGadget(0); err == nil {
		t.Fatalf("n=0 accepted")
	}
}
