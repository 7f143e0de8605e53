package scc

import (
	"math/rand"
	"testing"

	"incgraph/internal/graph"
)

// TestRepairedTreeStaysSound drives long unit-update sequences on a graph
// with one big cyclic component, so that tree-arc deletions (which fail the
// certificate and go to the search) and dirty components are frequent,
// then audits the full state.
func TestRepairedTreeStaysSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 40
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "x")
	}
	// Two interleaved cycles → one robust scc.
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+7)%n))
	}
	s := mustState(t, g)
	if s.NumComponents() != 1 {
		t.Fatalf("setup: want one scc")
	}
	for step := 0; step < 400; step++ {
		v := graph.NodeID(rng.Intn(n))
		w := graph.NodeID(rng.Intn(n))
		if v == w {
			continue
		}
		var err error
		if g.HasEdge(v, w) {
			_, err = s.ApplyDelete(graph.Del(v, w))
		} else {
			_, err = s.ApplyInsert(graph.Ins(v, w))
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%40 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaTrackerTransients ensures delta bookkeeping nets out across
// merge+split+merge chains inside one batch.
func TestDeltaTrackerTransients(t *testing.T) {
	g := mkGraph(6, [][2]int64{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}})
	s := mustState(t, g)
	batch := graph.Batch{
		graph.Ins(1, 2), graph.Ins(3, 0), // merge {0,1} and {2,3}
		graph.Ins(3, 4), graph.Ins(5, 2), // absorb {4,5}
	}
	delta, err := s.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.NumComponents() != 1 {
		t.Fatalf("want single merged component, have %v", s.ComponentsSorted())
	}
	if len(delta.Added) != 1 || len(delta.Added[0]) != 6 {
		t.Fatalf("delta.Added = %v", delta.Added)
	}
	if len(delta.Removed) != 3 {
		t.Fatalf("delta.Removed = %v", delta.Removed)
	}
}
