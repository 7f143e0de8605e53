package cluster

import (
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func benchSetup(b *testing.B, n int) (*graph.Graph, []graph.Batch) {
	b.Helper()
	g, err := gen.Dataset("synthetic", 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	g.SetShards(8)
	scratch := g.Clone()
	var batches []graph.Batch
	for i := 0; i < n; i++ {
		bb := gen.Updates(scratch, gen.UpdateSpec{Count: g.NumEdges() / 20, InsertRatio: 0.5, Locality: 0.8, Seed: int64(100 + i)})
		if err := scratch.ApplyBatch(bb); err != nil {
			b.Fatal(err)
		}
		batches = append(batches, bb)
	}
	return g, batches
}

func BenchmarkApplySingleProc(b *testing.B) {
	g, batches := benchSetup(b, b.N+1)
	h := g.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.ApplyBatch(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanEncode(b *testing.B) {
	g, batches := benchSetup(b, b.N+1)
	h := g.Clone()
	var body []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, ok := h.PlanBatch(batches[i])
		if !ok {
			b.Fatal("plan failed")
		}
		body = appendApplyBatch(body[:0], plan, plan.TouchedShards())
		plan.Release()
		b.StopTimer()
		if err := h.ApplyBatch(batches[i]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkApplyCluster(b *testing.B) {
	g, batches := benchSetup(b, b.N+1)
	h := g.Clone()
	links, _, stop := InProcess(2)
	defer stop()
	co, err := NewCoordinator(h, links, CoordinatorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	apply := func(bb graph.Batch) error {
		return co.Apply(bb, func() error { return h.ApplyBatch(bb) })
	}
	if err := apply(batches[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := apply(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}
