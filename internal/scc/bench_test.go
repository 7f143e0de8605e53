package scc

import (
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

// BenchmarkIncSCCRepairGiant commits a cycle of the repair-scc stream —
// the forward pass, then its undo, so every iteration starts on the seed
// graph — and reports the cost of one batch of 32.
func BenchmarkIncSCCRepairGiant(b *testing.B) {
	g := giantGraph(b)
	fwd := repairStream(g, 50, 32, 7)
	cycle := append([]graph.Batch(nil), fwd...)
	for i := len(fwd) - 1; i >= 0; i-- {
		cycle = append(cycle, fwd[i].Inverse())
	}
	s := Build(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range cycle {
			if _, err := s.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cycle)), "ns/batch")
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
