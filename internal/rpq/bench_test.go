package rpq

import (
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/rex"
)

// matchGraph is the seed graph of the repo benchmark's repair-match
// workload — dbpedia-sim with the alphabet folded to 6 labels and |E|/2
// short-range edges added — with that workload's standing RPQ.
func matchGraph(tb testing.TB, scale float64) (*graph.Graph, *rex.Ast) {
	tb.Helper()
	g, err := gen.Dataset("dbpedia", scale, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g = gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, 51)
	ast, err := gen.RPQDense(g, 4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g, ast
}

// repairCycle cuts one gen.Updates pass of the repair-match shape
// (InsertRatio 0.5, Locality 0.8) into batches of size and appends its
// undo, so that a cycle ends on the graph it started from.
func repairCycle(g *graph.Graph, batches, size int, seed int64) []graph.Batch {
	all := gen.Updates(g, gen.UpdateSpec{Count: batches * size, InsertRatio: 0.5, Locality: 0.8, Seed: seed})
	cycle := make([]graph.Batch, 0, 2*batches)
	for i := 0; i+size <= len(all); i += size {
		cycle = append(cycle, all[i:i+size])
	}
	for i := batches - 1; i >= 0; i-- {
		cycle = append(cycle, cycle[i].Inverse())
	}
	return cycle
}

// BenchmarkIncRPQRepairMatch commits the repair-match stream cycle after
// cycle — the forward pass, then its undo, so the graph stays near the seed
// graph however long the run — one batch of 32 per iteration: ns/op,
// allocs/op and B/op are per batch. Compare runs at a -benchtime that is a
// multiple of the cycle (200x).
func BenchmarkIncRPQRepairMatch(b *testing.B) {
	g, ast := matchGraph(b, 1)
	cycle := repairCycle(g, 100, 32, 7)
	e, err := NewEngine(g, ast, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range cycle { // warm the per-worker scratch
		if _, err := e.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(cycle[i%len(cycle)]); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink int

// BenchmarkRPQNFABuild is the batch side: RPQ_NFA from scratch, markings
// included (what NewEngine, BatchAnswer and WAL recovery pay).
func BenchmarkRPQNFABuild(b *testing.B) {
	g, ast := matchGraph(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(g, ast, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += e.Size()
	}
}
