package iso

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/history"
)

// randomPattern builds a weakly connected pattern of k nodes: a random tree
// with random edge directions, plus k/2 extra edges, self-loops among them.
func randomPattern(rng *rand.Rand, k int, labels []string) *Pattern {
	pg := graph.New()
	for i := 0; i < k; i++ {
		pg.AddNode(graph.NodeID(i), labels[rng.Intn(len(labels))])
	}
	for i := 1; i < k; i++ {
		j := graph.NodeID(rng.Intn(i))
		if rng.Intn(2) == 0 {
			pg.AddEdge(j, graph.NodeID(i))
		} else {
			pg.AddEdge(graph.NodeID(i), j)
		}
	}
	for e := 0; e < k/2; e++ {
		pg.AddEdge(graph.NodeID(rng.Intn(k)), graph.NodeID(rng.Intn(k)))
	}
	return MustPattern(pg)
}

// TestRepairEqualsRebuildDiff: on random graphs and random patterns of one
// to four nodes, the delta enumeration of Repair (batches below the cost
// model's floor always take it; a history batch of k is at most k+1
// updates) returns the ΔO that re-enumerating Q(G) from scratch and
// diffing does, batch after batch.
func TestRepairEqualsRebuildDiff(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(rng, 1+int(seed%4), labels)
		g := history.RandomGraph(rng, 24, 70, labels...)
		inc, ref := Build(g.Clone(), p, nil), Build(g.Clone(), p, nil)
		h := history.New(g, seed)
		for step := 0; step < 5; step++ {
			batch := h.Batch(1 + rng.Intn(cost.FallbackMinBatch-2))
			got, err := inc.Apply(batch)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if _, err := ref.Graph().Advance(batch); err != nil {
				t.Fatal(err)
			}
			if want := ref.rebuildDiff(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d step %d: Repair ΔO %v, rebuild and diff %v", seed, step, got, want)
			}
			if err := inc.Check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestMeterExact: the metered work of a build and of every repair is a
// function of graph, pattern and batch alone — equal across runs and at 1
// and 8 workers (helpers forced in). Anchors are installed in a fixed
// order, so an infeasible second anchor costs the same every time.
func TestMeterExact(t *testing.T) {
	defer graph.EagerFanOut()()
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(7))
	g := history.RandomGraph(rng, 300, 1200, labels...)
	h := history.New(g, 7)
	var stream []graph.Batch
	for _, size := range []int{1, 8, 31, 40, 3, 16} {
		stream = append(stream, h.Batch(size))
	}
	for k := 2; k <= 4; k++ {
		p := randomPattern(rng, k, labels)
		trace := func(workers int) []int {
			meter := &cost.Meter{}
			h := g.Clone()
			h.SetParallelism(workers)
			ix := Build(h, p, meter)
			totals := []int{meter.Total()}
			for _, b := range stream {
				if _, err := ix.Apply(b); err != nil {
					t.Fatal(err)
				}
				totals = append(totals, meter.Total())
			}
			return totals
		}
		want := trace(1)
		for _, workers := range []int{1, 8, 8} {
			if got := trace(workers); !slices.Equal(got, want) {
				t.Fatalf("pattern of %d nodes, workers %d: work %v, want %v", k, workers, got, want)
			}
		}
	}
}
