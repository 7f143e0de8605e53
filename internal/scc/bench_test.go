package scc

import (
	"slices"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// giantGraph is the seed graph of the repo benchmark's repair-scc
// workload: livej-sim at scale 0.1, one SCC through ~77% of the nodes.
func giantGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := gen.Dataset("livej", 0.1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// repairStream cuts one gen.Updates pass of the repair-scc shape
// (InsertRatio 0.5, Locality 0.8) into batches of size.
func repairStream(g *graph.Graph, batches, size int, seed int64) []graph.Batch {
	all := gen.Updates(g, gen.UpdateSpec{Count: batches * size, InsertRatio: 0.5, Locality: 0.8, Seed: seed})
	out := make([]graph.Batch, 0, batches)
	for i := 0; i+size <= len(all); i += size {
		out = append(out, all[i:i+size])
	}
	return out
}

// cycleOf returns the forward pass followed by its undo, so that applying
// the whole cycle ends on the graph it started from.
func cycleOf(fwd []graph.Batch) []graph.Batch {
	cycle := append([]graph.Batch(nil), fwd...)
	for i := len(fwd) - 1; i >= 0; i-- {
		cycle = append(cycle, fwd[i].Inverse())
	}
	return cycle
}

// repairCycle is the cycle BenchmarkIncSCCRepairGiant commits: 50 batches
// of 32 of the repair-scc stream and their undo.
func repairCycle(g *graph.Graph) []graph.Batch { return cycleOf(repairStream(g, 50, 32, 7)) }

// splitStream returns delete-only batches of size that take the giant
// component apart at its fringe: the deletions remove, member by member,
// every edge into a member that has at most two from the rest of the
// component, which cuts it off. A batch of 32 peels the side its first
// failed search closed, and a scoped pass over the rest splits it into a few
// dozen parts.
func splitStream(g *graph.Graph, size int) []graph.Batch {
	s := Build(g, nil)
	giant := s.MembersOf(giantOf(s))
	var dels graph.Batch
	for _, v := range giant {
		var from []graph.NodeID
		for _, p := range g.PredecessorsSorted(v) {
			if _, inside := slices.BinarySearch(giant, p); inside && p != v {
				from = append(from, p)
			}
		}
		if len(from) <= 2 {
			for _, p := range from {
				dels = append(dels, graph.Del(p, v))
			}
		}
	}
	var out []graph.Batch
	for i := 0; i+size <= len(dels); i += size {
		out = append(out, dels[i:i+size])
	}
	return out
}

// benchCycle commits cycle over and over — every iteration starts on the
// seed graph — and reports the cost of one batch. One untimed cycle first
// lets the rows the stream touches grow to the capacity they keep.
func benchCycle(b *testing.B, g *graph.Graph, cycle []graph.Batch) {
	s := Build(g, nil)
	apply := func() {
		for _, batch := range cycle {
			if _, err := s.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	apply()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cycle)), "ns/batch")
}

// BenchmarkIncSCCRepairGiant commits a cycle of the repair-scc stream —
// the forward pass, then its undo — in batches of 32: mostly searches that
// find the giant component intact, and peels that cut a member or two off
// it.
func BenchmarkIncSCCRepairGiant(b *testing.B) {
	g := giantGraph(b)
	benchCycle(b, g, repairCycle(g))
}

// BenchmarkIncSCCSplitGiant is the split-heavy sibling: delete-only
// batches of 32 that each cut that many members off the giant component
// (a peel, then the scoped pass over the rest and splitComp's rebuild of the
// G_c counters), and the insertions that merge them back.
func BenchmarkIncSCCSplitGiant(b *testing.B) {
	g := giantGraph(b)
	fwd := splitStream(g, 32)
	if len(fwd) < 4 {
		b.Fatalf("only %d split batches", len(fwd))
	}
	benchCycle(b, g, cycleOf(fwd))
}

// BenchmarkIncSCCAblation measures IncSCC's profile at |ΔG| = 10% of the
// giant-SCC graph, one op being ΔG and then its undo: the unit path
// (IncSCC−'s certificate and searches, update by update) against the
// batch path, and on the batch path local shortcut insertions against
// uniform random ones, which trigger rank-window reorders.
func BenchmarkIncSCCAblation(b *testing.B) {
	g := giantGraph(b)
	spec := gen.UpdateSpec{Count: g.NumEdges() / 10, InsertRatio: 0.5, Locality: 1, Seed: 101}
	local := gen.Updates(g, spec)
	spec.Locality = 0
	uniform := gen.Updates(g, spec)
	for _, v := range []struct {
		name     string
		batch    graph.Batch
		unitwise bool
	}{
		{"unit/repair", local, true},
		{"batch/local-ins", local, false},
		{"batch/uniform-ins", uniform, false},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := Build(g.Clone(), nil)
			apply := s.Apply
			if v.unitwise {
				apply = s.ApplyUnitwise
			}
			undo := v.batch.Inverse()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range []graph.Batch{v.batch, undo} {
					if _, err := apply(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

var benchSink int

// BenchmarkTarjanBuild is the batch side: Tarjan from scratch plus the
// auxiliary structures (Build), and the bare partition (Components).
func BenchmarkTarjanBuild(b *testing.B) {
	g := giantGraph(b)
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += Build(g, nil).NumComponents()
		}
	})
	b.Run("Components", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(Components(g))
		}
	})
}
