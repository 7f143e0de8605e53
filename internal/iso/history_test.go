package iso_test

import (
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/history"
	"incgraph/internal/iso"
)

// TestRandomHistory drives internal/history's seeded histories — batches
// of 1, 4, 32 and 256 mixing deletions, insertions, insertions that create
// nodes with small, negative and huge IDs, and pairs that cancel within
// the batch — over the repair-match graph shape at small scale with its
// 4-node tree pattern and over a random graph on {a, b, c} with path,
// triangle and star patterns, and after every batch audits the index and
// judges ΔO and the answer against a fresh build (history.CheckStep), for
// IncISO and the unit-at-a-time IncISOn, at 1 and 8 workers (helpers
// forced in). ΔO must be non-empty at some step, and for the patterns
// whose anchors outnumber their root candidates on the 256-update batches
// IncISO must take rebuild-and-diff at some.
func TestRandomHistory(t *testing.T) {
	defer graph.EagerFanOut()()
	match, mp := matchGraph(t, 0.05)
	random := history.RandomGraph(rand.New(rand.NewSource(1)), 60, 180, "a", "b", "c")
	cases := []struct {
		name     string
		g        *graph.Graph
		p        *iso.Pattern
		rebuilds bool // Apply takes rebuild-and-diff at some step
	}{
		{"match", match, mp, false},
		{"ab", random, iso.PathPattern("a", "b"), false},
		{"aba", random, iso.PathPattern("a", "b", "a"), true},
		{"abc", random, iso.PathPattern("a", "b", "c"), false},
		{"triangle", random, iso.TrianglePattern("a", "b", "c"), true},
		{"star", random, iso.StarPattern("a", "b", "c"), false},
	}
	apply := []struct {
		name string
		do   func(*iso.Index, graph.Batch) (iso.Delta, error)
	}{
		{"Apply", (*iso.Index).Apply},
		{"ApplyUnitwise", (*iso.Index).ApplyUnitwise},
	}
	sizes := []int{1, 4, 32, 256, 4, 1, 32}
	for ci, c := range cases {
		for _, ap := range apply {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers%d", c.name, ap.name, workers), func(t *testing.T) {
					g := c.g.Clone()
					g.SetParallelism(workers)
					h := history.New(g, int64(300+ci))
					ix := iso.Build(g, c.p, nil)
					fresh := func() graph.Rows { return iso.Build(g.Clone(), c.p, nil).Rows() }
					was, moved, rebuilt := fresh(), 0, 0
					for step := 0; step < 2*len(sizes); step++ {
						b := h.Batch(sizes[step%len(sizes)])
						d, err := ap.do(ix, b)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if err := ix.Check(); err != nil {
							t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
						}
						now := fresh()
						if err := history.CheckStep(ix, was, now, ix.Rows(), d); err != nil {
							t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
						}
						was = now
						moved += min(d.Len(), 1)
						if ix.LastEstimate().PreferBatch() {
							rebuilt++
						}
					}
					if moved == 0 {
						t.Fatal("ΔO was empty at every step: the history checked nothing")
					}
					if c.rebuilds && ap.name == "Apply" && rebuilt == 0 {
						t.Fatal("no batch took rebuild-and-diff")
					}
					if !g.Equal(h.Sim) {
						t.Fatal("index graph diverged from the simulated history")
					}
				})
			}
		}
	}
}
