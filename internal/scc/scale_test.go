package scc

import (
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// TestWorkAtScale is Exp-3 for IncSCC in exact units: on livej-sim at 2·10⁴
// and 2·10⁵ nodes (one giant component through ~98 % of them), one
// gen.Updates batch (ρ = 1, locality 0.5, seed 5) of 100 and then one of
// 1,000 updates, each followed by its inverse, through Apply (Advance +
// Repair) on one state built once per graph. It pins, per batch and its
// inverse, IncSCC's metered work and the nodes its component-scoped Tarjan
// passes covered, and the work of Build: Tarjan from scratch, the batch
// rival's work.
func TestWorkAtScale(t *testing.T) {
	if raceDetector {
		t.Skip("generates a 2·10⁵-node graph")
	}
	type point struct {
		dg    int
		work  string
		scope int
	}
	for _, tc := range []struct {
		scale  float64
		tarjan string
		points []point
	}{
		{1, "cost{nodes=20000 edges=100000 entries=0 heap=0 total=120000}", []point{
			{100, "cost{nodes=4075 edges=20995 entries=0 heap=0 total=25070}", 0},
			{1000, "cost{nodes=53798 edges=277234 entries=19773 heap=0 total=350805}", 19702},
		}},
		{10, "cost{nodes=200000 edges=1000000 entries=0 heap=0 total=1200000}", []point{
			{100, "cost{nodes=12963 edges=67066 entries=7 heap=0 total=80036}", 0},
			{1000, "cost{nodes=141887 edges=725791 entries=6579 heap=0 total=874257}", 9},
		}},
	} {
		g, err := gen.Dataset("livej", tc.scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		m := &cost.Meter{}
		s := Build(g, m)
		if got := m.String(); got != tc.tarjan {
			t.Errorf("V=%d: Build metered %s, want %s", g.NumNodes(), got, tc.tarjan)
		}
		tarjan := m.Total()
		for _, p := range tc.points {
			fwd := gen.Updates(g, gen.UpdateSpec{Count: p.dg, InsertRatio: 0.5, Locality: 0.5, Seed: 5})
			m.Reset()
			s.scope = 0
			for _, b := range []graph.Batch{fwd, fwd.Inverse()} {
				if _, err := s.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.String(); got != p.work || s.scope != p.scope {
				t.Errorf("V=%d, |ΔG|=%d and its inverse: metered %s over a scope of %d, want %s over %d",
					g.NumNodes(), p.dg, got, s.scope, p.work, p.scope)
			}
			t.Logf("V=%d |ΔG|=%d: IncSCC %d (%.2f× Tarjan's %d), scoped passes over %d nodes",
				g.NumNodes(), p.dg, m.Total(), float64(m.Total())/float64(tarjan), tarjan, s.scope)
		}
	}
}
