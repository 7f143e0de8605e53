package rpq

// Tests of the flat layout: randomized histories checked against a fresh
// build after every batch, the two hazards of deriving cpre from a graph
// that was mutated before the repair, the rejected-batch contract, and
// allocation regressions of a warm repair.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"incgraph/internal/graph"
	"incgraph/internal/history"
	"incgraph/internal/rex"
)

// cyclicToy is a small graph dense in cycles over {a, b, c}.
func cyclicToy() *graph.Graph {
	g := graph.New()
	labels := []string{"a", "b", "b", "c", "b", "a", "c", "b"}
	const n = 24
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), labels[i%len(labels)])
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		g.AddEdge(graph.NodeID(i), graph.NodeID((i*5+3)%n))
		if i%3 == 0 {
			g.AddEdge(graph.NodeID((i+4)%n), graph.NodeID(i))
		}
	}
	return g
}

// TestRandomHistory drives internal/history's seeded histories — batches
// of 1, 4, 32 and 256 mixing deletions, insertions, insertions that create
// source and non-source nodes with small, negative and huge IDs, and pairs
// that cancel within the batch — over the repair-match graph shape at
// small scale and over a cyclic toy graph, for queries with a Kleene star,
// with a union and a single label, and after every batch audits the engine
// and judges ΔO and the answer against a fresh build (history.CheckStep),
// for IncRPQ and the unit-at-a-time IncRPQn, at 1 and 8 workers (helpers
// forced in: these repairs are over before one would arrive). ΔO must be
// non-empty at some step.
func TestRandomHistory(t *testing.T) {
	defer graph.EagerFanOut()()
	match, dense := matchGraph(t, 0.05)
	graphs := []struct {
		name    string
		g       *graph.Graph
		queries []*rex.Ast
	}{
		{"match", match, []*rex.Ast{dense, rex.MustParse("l0.(l1+l2).l3"), rex.MustParse("l1")}},
		{"cyclic", cyclicToy(), []*rex.Ast{rex.MustParse("a.b*.c"), rex.MustParse("(a+c).(b+c).b"), rex.MustParse("b"),
			rex.MustParse("a.(b+c)*.a"), rex.MustParse("c.(b.a+c)*.c")}},
	}
	apply := []struct {
		name string
		do   func(*Engine, graph.Batch) (Delta, error)
	}{
		{"Apply", (*Engine).Apply},
		{"ApplyUnitwise", (*Engine).ApplyUnitwise},
	}
	sizes := []int{1, 4, 32, 256, 4, 1, 32}
	for _, gr := range graphs {
		for qi, ast := range gr.queries {
			for _, ap := range apply {
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s/%s/%s/workers%d", gr.name, ast, ap.name, workers)
					t.Run(name, func(t *testing.T) {
						g := gr.g.Clone()
						g.SetParallelism(workers)
						h := history.New(g, int64(100+qi))
						e, err := NewEngine(g, ast, nil)
						if err != nil {
							t.Fatal(err)
						}
						fresh := func() graph.Rows {
							f, err := NewEngine(g.Clone(), ast, nil)
							if err != nil {
								t.Fatal(err)
							}
							return f.Rows()
						}
						was, moved := fresh(), 0
						for step := 0; step < 2*len(sizes); step++ {
							b := h.Batch(sizes[step%len(sizes)])
							d, err := ap.do(e, b)
							if err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
							if err := e.Check(); err != nil {
								t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
							}
							now := fresh()
							if err := history.CheckStep(e, was, now, e.Rows(), d); err != nil {
								t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
							}
							was = now
							moved += min(d.Len(), 1)
						}
						if moved == 0 {
							t.Fatal("ΔO was empty at every step: the history checked nothing")
						}
						if !g.Equal(h.Sim) {
							t.Fatal("engine graph diverged from the simulated history")
						}
					})
				}
			}
		}
	}
}

// labeled builds a graph from its node labels and [from, to] edges.
func labeled(nodes map[graph.NodeID]string, edges [][2]graph.NodeID) *graph.Graph {
	g := graph.New()
	for v, l := range nodes {
		g.AddNode(v, l)
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestInsertedEdgeFromAffectedTail: the batch deletes k's only support and
// inserts k→y where dist(k)+1 = dist(y) already held through two other
// predecessors. identAff walks k's successors in the graph after the batch
// and must not take the inserted edge for one of y's supports.
func TestInsertedEdgeFromAffectedTail(t *testing.T) {
	const u, k, p1, p2, y = 0, 1, 2, 3, 4
	g := labeled(
		map[graph.NodeID]string{u: "a", k: "b", p1: "b", p2: "b", y: "b"},
		[][2]graph.NodeID{{u, k}, {u, p1}, {u, p2}, {p1, y}, {p2, y}})
	e := mustEngine(t, g, "a.b*")
	if d, ok := e.Dist(u, y, 2); !ok || d != 2 {
		t.Fatalf("setup: dist(y) = %d, %v", d, ok)
	}
	d, err := e.Apply(graph.Batch{graph.Del(u, k), graph.Ins(k, y)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 0 || !slices.Equal(d.Removed, []Pair{{u, k}}) {
		t.Fatalf("ΔO = %+v, want only (u,k) removed", d)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	// y still has exactly its two supports: losing one keeps it, losing
	// both removes it.
	for i, del := range []graph.Update{graph.Del(p1, y), graph.Del(p2, y)} {
		d, err := e.Apply(graph.Batch{del})
		if err != nil {
			t.Fatal(err)
		}
		if gone := len(d.Removed) == 1; gone != (i == 1) {
			t.Fatalf("after %v: ΔO = %+v", del, d)
		}
		if err := e.Check(); err != nil {
			t.Fatalf("after %v: %v", del, err)
		}
	}
}

// TestInsertedEdgeIntoAffectedHead: the batch deletes y's support and
// inserts x→y where dist(x)+1 equals the potential y gets from its
// remaining predecessor p. The potentials scan reads y's predecessors in
// the graph after the batch and must leave x to insertion seeding, or x is
// counted twice and a later deletion of both supports misses y.
func TestInsertedEdgeIntoAffectedHead(t *testing.T) {
	const u, q, m, p, x, y = 0, 1, 2, 3, 4, 5
	g := labeled(
		map[graph.NodeID]string{u: "a", q: "b", m: "b", p: "b", x: "b", y: "b"},
		[][2]graph.NodeID{{u, q}, {q, y}, {u, m}, {m, p}, {m, x}, {p, y}})
	e := mustEngine(t, g, "a.b*")
	d, err := e.Apply(graph.Batch{graph.Del(q, y), graph.Ins(x, y)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("ΔO = %+v, want none: y stays a match at distance 3", d)
	}
	if dist, ok := e.Dist(u, y, 2); !ok || dist != 3 {
		t.Fatalf("dist(y) = %d, %v, want 3", dist, ok)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	d, err = e.Apply(graph.Batch{graph.Del(p, y), graph.Del(x, y)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Removed, []Pair{{u, y}}) || e.HasMatch(u, y) {
		t.Fatalf("ΔO = %+v, want (u,y) removed", d)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedBatchLeavesEngineUntouched: a batch that cannot be applied
// must not leave the nodes of its insertions behind — they would sit in the
// graph with no marking table, and a later insertion at them would be
// routed nowhere.
func TestRejectedBatchLeavesEngineUntouched(t *testing.T) {
	g := labeled(map[graph.NodeID]string{1: "a", 2: "b"}, [][2]graph.NodeID{{1, 2}})
	e := mustEngine(t, g, "a.b")
	before := g.Clone()
	_, err := e.Apply(graph.Batch{graph.InsNew(3, 2, "a", "b"), graph.Del(2, 1)})
	if !errors.Is(err, graph.ErrBadUpdate) {
		t.Fatalf("batch deleting a missing edge: %v, want ErrBadUpdate", err)
	}
	if !g.Equal(before) {
		t.Fatalf("rejected batch changed the graph: %v", g)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	d, err := e.Apply(graph.Batch{graph.InsNew(3, 2, "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.Added, []Pair{{3, 2}}) || !e.HasMatch(3, 2) {
		t.Fatalf("ΔO = %+v, want (3,2) added", d)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseNodeIDs: negative IDs and IDs far beyond the node count take
// the node index's map path, next to small IDs on its array path.
func TestSparseNodeIDs(t *testing.T) {
	const far = graph.NodeID(1) << 40
	g := labeled(
		map[graph.NodeID]string{-5: "a", 3: "b", far: "b", 7: "c"},
		[][2]graph.NodeID{{-5, 3}, {3, far}, {far, 7}})
	e := mustEngine(t, g, "a.b*.c")
	if !e.HasMatch(-5, 7) || e.Size() != 1 {
		t.Fatalf("matches = %v", e.Matches())
	}
	d, err := e.Apply(graph.Batch{
		graph.InsNew(-9, 3, "a", ""),
		graph.InsNew(far, far+far, "", "c"),
		graph.InsNew(3, 2000, "", "c"),
		graph.Del(far, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Delta{
		Added:   []Pair{{-9, 2000}, {-9, far + far}, {-5, 2000}, {-5, far + far}},
		Removed: []Pair{{-5, 7}},
	}
	if !slices.Equal(d.Added, want.Added) || !slices.Equal(d.Removed, want.Removed) {
		t.Fatalf("ΔO = %+v, want %+v", d, want)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if p, ok := e.Witness(-9, far+far); !ok || !slices.Equal(p, []graph.NodeID{-9, 3, far, far + far}) {
		t.Fatalf("witness = %v, %v", p, ok)
	}
}

// TestWarmApplyAllocs pins the allocation behaviour of a warm engine: an
// update that no source's marking can see allocates a constant, and a
// repair that removes and re-creates a thousand entries across S sources
// allocates per batch and per source, not per entry.
func TestWarmApplyAllocs(t *testing.T) {
	// S sources reach a chain of L nodes through one hub; a z-labeled
	// island carries no entries.
	const S, L = 8, 150
	const hub, chain, island = 100, 1000, 5000
	g := graph.New()
	g.SetParallelism(1)
	g.AddNode(hub, "b")
	for i := 0; i < S; i++ {
		g.AddNode(graph.NodeID(i), "a")
		g.AddEdge(graph.NodeID(i), hub)
	}
	for i := 0; i < L; i++ {
		g.AddNode(chain+graph.NodeID(i), "b")
		if i > 0 {
			g.AddEdge(chain+graph.NodeID(i-1), chain+graph.NodeID(i))
		}
	}
	g.AddEdge(hub, chain)
	g.AddNode(island, "z")
	g.AddNode(island+1, "z")
	g.AddEdge(island, island+1)
	e := mustEngine(t, g, "a.b*")
	if e.Size() != S*(L+2) { // itself, the hub, the chain
		t.Fatalf("setup: %d matches, want %d", e.Size(), S*(L+2))
	}

	flip := func(u graph.Update) func() {
		return func() {
			if _, err := e.Apply(graph.Batch{u}); err != nil {
				t.Fatal(err)
			}
			u = u.Inverse()
		}
	}
	far := flip(graph.Del(island, island+1))
	far()
	far()
	const constant = 6 // Normalize's maps and slice, the graph's own
	if allocs := testing.AllocsPerRun(20, far); allocs > constant {
		t.Fatalf("update that touches no source: %.1f allocs/op, want at most %d", allocs, constant)
	}

	cut := flip(graph.Del(hub, chain))
	cut()
	cut()
	// ΔO itself is S·L pairs in a slice that doubles a dozen times.
	if allocs := testing.AllocsPerRun(20, cut); allocs > constant+S+12 {
		t.Fatalf("repair of %d sources over %d entries: %.1f allocs/op, want O(sources)", S, S*L, allocs)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}
