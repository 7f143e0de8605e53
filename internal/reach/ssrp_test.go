package reach

import (
	"maps"
	"math/rand"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/history"
)

func chain(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return g
}

func TestBuildAndQueries(t *testing.T) {
	g := chain(5)
	s, err := Build(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Source() != 1 || s.NumReachable() != 4 {
		t.Fatalf("source %d, %d reachable; want 1, 4", s.Source(), s.NumReachable())
	}
	if s.Reachable(0) || !s.Reachable(4) {
		t.Fatalf("membership wrong")
	}
	if _, err := Build(g, 99, nil); err == nil {
		t.Fatalf("missing source accepted")
	}
}

func TestInsertBounded(t *testing.T) {
	g := chain(4)
	g.AddNode(10, "x")
	g.AddNode(11, "x")
	g.AddEdge(10, 11)
	s, _ := Build(g, 0, nil)
	added, err := s.ApplyInsert(graph.Ins(3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || added[0] != 10 || added[1] != 11 {
		t.Fatalf("added = %v", added)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// Inserting an edge between already-reachable nodes changes nothing.
	added, err = s.ApplyInsert(graph.Ins(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if added != nil {
		t.Fatalf("no-op insert added %v", added)
	}
}

func TestInsertCostBoundedByChanged(t *testing.T) {
	// The insertion path must not scale with |G| when |ΔO| is fixed.
	run := func(extra int) int {
		g := chain(3)
		g.AddNode(50, "x")
		for i := 0; i < extra; i++ {
			id := graph.NodeID(1000 + i)
			g.AddNode(id, "x")
			if i > 0 {
				g.AddEdge(id-1, id)
			}
		}
		s, _ := Build(g, 0, nil)
		m := &cost.Meter{}
		s.meter = m
		if _, err := s.ApplyInsert(graph.Ins(2, 50)); err != nil {
			t.Fatal(err)
		}
		return m.Total()
	}
	if a, b := run(10), run(5000); a != b {
		t.Fatalf("insert cost grew with |G|: %d vs %d", a, b)
	}
}

func TestDeleteRecomputes(t *testing.T) {
	g := chain(5)
	s, _ := Build(g, 0, nil)
	removed, err := s.ApplyDelete(graph.Del(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 || removed[0] != 3 || removed[1] != 4 {
		t.Fatalf("removed = %v", removed)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// Deleting an edge outside the reachable region is free.
	g.AddNode(70, "x")
	g.AddNode(71, "x")
	g.AddEdge(70, 71)
	removed, err = s.ApplyDelete(graph.Del(70, 71))
	if err != nil {
		t.Fatal(err)
	}
	if removed != nil {
		t.Fatalf("irrelevant delete removed %v", removed)
	}
}

func TestErrors(t *testing.T) {
	g := chain(3)
	s, _ := Build(g, 0, nil)
	if _, err := s.ApplyInsert(graph.Del(0, 1)); err == nil {
		t.Fatalf("ApplyInsert accepted delete")
	}
	if _, err := s.ApplyDelete(graph.Ins(0, 1)); err == nil {
		t.Fatalf("ApplyDelete accepted insert")
	}
	if _, err := s.ApplyDelete(graph.Del(2, 0)); err == nil {
		t.Fatalf("missing edge deletion accepted")
	}
}

// TestRandomizedEquivalence drives internal/history's seeded batches over
// small random digraphs — deletions, insertions between existing nodes and
// to nodes they create (below, just above and far above the ID range), and
// pairs that cancel within a batch — through ApplyInsert and ApplyDelete
// update by update. After every update the set is audited (Check); after
// every batch the nodes each update reported as newly reachable or
// unreachable, folded onto the set before the batch, must be the set a
// fresh Build finds on the simulated graph, and the engine's graph must be
// that graph.
func TestRandomizedEquivalence(t *testing.T) {
	moved := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := history.RandomGraph(rng, 12, 20, "x", "y")
		h := history.New(g, seed)
		s, err := Build(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			b := h.Batch(1 + rng.Intn(8))
			was := maps.Clone(s.reach)
			for _, u := range b {
				var d []graph.NodeID
				var err error
				if u.Op == graph.Insert {
					d, err = s.ApplyInsert(u)
				} else {
					d, err = s.ApplyDelete(u)
				}
				if err != nil {
					t.Fatalf("seed %d step %d, %v: %v", seed, step, u, err)
				}
				for _, v := range d {
					if was[v] == (u.Op == graph.Insert) {
						t.Fatalf("seed %d step %d, %v reports %d, whose reachability did not change", seed, step, u, v)
					}
					if u.Op == graph.Insert {
						was[v] = true
					} else {
						delete(was, v)
					}
				}
				moved += len(d)
				if err := s.Check(); err != nil {
					t.Fatalf("seed %d step %d, after %v: %v", seed, step, u, err)
				}
			}
			fresh, err := Build(h.Sim.Clone(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(was, fresh.reach) || !maps.Equal(s.reach, fresh.reach) {
				t.Fatalf("seed %d step %d: reported changes fold to %d nodes, the set holds %d, a fresh build %d",
					seed, step, len(was), len(s.reach), len(fresh.reach))
			}
			if !s.g.Equal(h.Sim) {
				t.Fatalf("seed %d step %d: the engine's graph diverged from the history", seed, step)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no update changed reachability: the histories checked nothing")
	}
}
