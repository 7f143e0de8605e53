package kws_test

// Tests of the flat layout: randomized histories checked against a fresh
// build after every step, a digest pin of deltas, answers, distances
// and metered work over one fixed history, the keyword-node edge case of
// affected identification, and allocation regressions of a warm repair.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/history"
	"incgraph/internal/kws"
)

// sparseToy is a random graph over {a, …, e} whose IDs are small, negative
// (never -1, NoNext's value) and past 2⁴⁰ in turn.
func sparseToy(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	const n = 60
	id := func(i int) graph.NodeID {
		switch i % 3 {
		case 0:
			return graph.NodeID(i)
		case 1:
			return graph.NodeID(-2 - i)
		}
		return 1<<40 + graph.NodeID(i)
	}
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(id(i), string(rune('a'+rng.Intn(5))))
	}
	for i := 0; i < 3*n; i++ {
		g.AddEdge(id(rng.Intn(n)), id(rng.Intn(n)))
	}
	return g
}

// TestRandomHistory drives internal/history's seeded histories — batches
// of 1, 4, 32 and 256 mixing deletions, insertions, insertions that create
// nodes with small, negative and huge IDs, and pairs that cancel within
// the batch, and every fifth step a bound extension — over the
// repair-match graph shape at small scale and over a sparse-ID toy graph,
// and after every step audits the index and judges ΔO and the answer
// against a fresh build (history.CheckStep), for IncKWS and the
// unit-at-a-time IncKWSn, at 1 and 8 workers (helpers forced in: these
// repairs are over before one would arrive). ΔO must be non-empty at some
// step, and on the toy graph IncKWS must take rebuild-and-diff at some.
func TestRandomHistory(t *testing.T) {
	defer graph.EagerFanOut()()
	match, mq := matchGraph(t, 0.05)
	graphs := []struct {
		name     string
		g        *graph.Graph
		queries  []kws.Query
		rebuilds bool
	}{
		{"match", match, []kws.Query{mq, {Keywords: mq.Keywords[:1], Bound: 1}}, false},
		{"sparse", sparseToy(3), []kws.Query{{Keywords: []string{"a", "d"}, Bound: 2}, {Keywords: []string{"a", "b", "c"}, Bound: 0}}, true},
	}
	apply := []struct {
		name string
		do   func(*kws.Index, graph.Batch) (kws.Delta, error)
	}{
		{"Apply", (*kws.Index).Apply},
		{"ApplyUnitwise", (*kws.Index).ApplyUnitwise},
	}
	sizes := []int{1, 4, 32, 256, 4, 1, 32}
	for _, gr := range graphs {
		for qi, q := range gr.queries {
			for _, ap := range apply {
				for _, workers := range []int{1, 8} {
					name := fmt.Sprintf("%s/q%d/%s/workers%d", gr.name, qi, ap.name, workers)
					t.Run(name, func(t *testing.T) {
						g := gr.g.Clone()
						g.SetParallelism(workers)
						h := history.New(g, int64(200+qi))
						ix, err := kws.Build(g, q, nil)
						if err != nil {
							t.Fatal(err)
						}
						fresh := func() graph.Rows {
							f, err := kws.Build(g.Clone(), ix.Query(), nil)
							if err != nil {
								t.Fatal(err)
							}
							return f.Rows()
						}
						was := fresh()
						moved, rebuilt := 0, 0
						for step := 0; step < 2*len(sizes); step++ {
							var d kws.Delta
							what := "ExtendBound"
							if step%5 == 4 {
								d, err = ix.ExtendBound(ix.Query().Bound + 1)
							} else {
								b := h.Batch(sizes[step%len(sizes)])
								what = fmt.Sprintf("|ΔG|=%d", len(b))
								d, err = ap.do(ix, b)
								if ix.LastEstimate().PreferBatch() {
									rebuilt++
								}
							}
							if err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
							if err := ix.Check(); err != nil {
								t.Fatalf("step %d (%s): %v", step, what, err)
							}
							now := fresh()
							if err := history.CheckStep(ix, was, now, ix.Rows(), d); err != nil {
								t.Fatalf("step %d (%s): %v", step, what, err)
							}
							was = now
							moved += min(d.Len(), 1)
						}
						if moved == 0 {
							t.Fatal("ΔO was empty at every step: the history checked nothing")
						}
						if gr.rebuilds && ap.name == "Apply" && rebuilt == 0 {
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
}

// digestStream is TestDigestPin's own frozen input, used by nothing else:
// the generator its pinned digest was taken over. Every other test of the
// package draws from internal/history. It generates batches that are
// valid against sim in order, and applies them to sim: deletions,
// insertions between existing nodes, and — every tenth update or so — an
// insertion that hangs a new node off an existing one, in either
// direction. New nodes take, in turn, the next small ID, the next negative
// one and the next one past 2⁴⁰.
type digestStream struct {
	rng             *rand.Rand
	sim             *graph.Graph
	nodes           []graph.NodeID
	labels          []string
	next, neg, huge graph.NodeID
	created         int
}

func newDigestStream(g *graph.Graph, seed int64) *digestStream {
	h := &digestStream{rng: rand.New(rand.NewSource(seed)), sim: g.Clone(), neg: -2, huge: 1<<40 + 1<<20}
	h.nodes = h.sim.NodesSorted()
	h.sim.Labels(func(l string, _ int) bool {
		h.labels = append(h.labels, l)
		return true
	})
	slices.Sort(h.labels)
	return h
}

// fresh returns an ID no node has.
func (h *digestStream) fresh() graph.NodeID {
	for {
		var v graph.NodeID
		switch h.created++; h.created % 3 {
		case 0:
			v, h.next = h.next, h.next+1
		case 1:
			v, h.neg = h.neg, h.neg-1
		default:
			v, h.huge = h.huge, h.huge+1
		}
		if !h.sim.HasNode(v) {
			return v
		}
	}
}

func (h *digestStream) batch(k int) graph.Batch {
	var b graph.Batch
	for len(b) < k {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		var u graph.Update
		switch h.rng.Intn(10) {
		case 0, 1, 2, 3:
			succ := h.sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			u = graph.Del(v, succ[h.rng.Intn(len(succ))])
		case 4:
			l, w := h.labels[h.rng.Intn(len(h.labels))], h.fresh()
			if h.rng.Intn(2) == 0 {
				u = graph.InsNew(v, w, "", l)
			} else {
				u = graph.InsNew(w, v, l, "")
			}
			h.nodes = append(h.nodes, w)
		default:
			w := h.nodes[h.rng.Intn(len(h.nodes))]
			if h.sim.HasEdge(v, w) {
				continue
			}
			u = graph.Ins(v, w)
		}
		if err := h.sim.Apply(u); err != nil {
			panic(err)
		}
		b = append(b, u)
	}
	return b
}

// digestHistory runs one fixed history — batches through Apply and
// ApplyUnitwise, unit insertions and deletions, two bound extensions — on
// the sparse toy graph and the small repair-match graph, and hashes every
// ΔO, every answer, every kdist distance and the metered work.
func digestHistory(t *testing.T, workers int) string {
	h := sha256.New()
	match, mq := matchGraph(t, 0.05)
	for gi, start := range []struct {
		g *graph.Graph
		q kws.Query
	}{
		{sparseToy(11), kws.Query{Keywords: []string{"b", "e", "a"}, Bound: 2}},
		{match, mq},
	} {
		g := start.g.Clone()
		g.SetParallelism(workers)
		hist := newDigestStream(g, int64(300+gi))
		meter := &cost.Meter{}
		ix, err := kws.Build(g, start.q, meter)
		if err != nil {
			t.Fatal(err)
		}
		digestState(h, ix, meter)
		for step, size := range []int{1, 4, 32, 256, 4, 1, 32, 8, 16, 2} {
			var d kws.Delta
			switch step % 5 {
			case 0, 1:
				d, err = ix.Apply(hist.batch(size))
			case 2:
				d, err = ix.ApplyUnitwise(hist.batch(size))
			case 3:
				b := hist.batch(1)
				if b[0].Op == graph.Insert {
					d, err = ix.ApplyInsert(b[0])
				} else {
					d, err = ix.ApplyDelete(b[0])
				}
			case 4:
				d, err = ix.ExtendBound(ix.Query().Bound + 1)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			fmt.Fprintf(h, "%v\n", d)
			digestState(h, ix, meter)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestState(h hash.Hash, ix *kws.Index, meter *cost.Meter) {
	if err := ix.WriteAnswer(h); err != nil {
		panic(err)
	}
	for _, v := range ix.Graph().NodesSorted() {
		for i := range ix.Query().Keywords {
			fmt.Fprintf(h, "%d ", ix.Entry(v, i).Dist)
		}
	}
	fmt.Fprintf(h, "\nwork %d\n", meter.Total())
}

// TestDigestPin pins digestHistory at 1 and at 8 workers. The deltas,
// distances and metered work are those the map-keyed layout (kdist as a
// map of rows, an indexed heap per keyword) produced; the answers after a
// bound extension are a fresh build's since ExtendBound stopped serving
// the sorted roots memoized before it.
func TestDigestPin(t *testing.T) {
	defer graph.EagerFanOut()()
	const want = "0b87a69efc1854f7c4fa705c2b3bbc5c969f1d1509fc6a6591acf288f62c0a5a"
	for _, workers := range []int{1, 8} {
		if got := digestHistory(t, workers); got != want {
			t.Errorf("workers %d: digest %s, want %s", workers, got, want)
		}
	}
}

// TestKeywordNodeStaysAtZero: a keyword node's entry has dist 0 and next
// pointer NoNext, which is -1, a valid NodeID. Deleting the node's edge to
// node -1 must not take the edge for its shortest path.
func TestKeywordNodeStaysAtZero(t *testing.T) {
	g := graph.New()
	g.AddNode(5, "a")
	g.AddNode(-1, "b")
	g.AddNode(6, "c")
	g.AddEdge(5, -1)
	g.AddEdge(-1, 5)
	g.AddEdge(6, 5)
	ix, err := kws.Build(g, kws.Query{Keywords: []string{"a"}, Bound: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ix.Apply(graph.Batch{graph.Del(5, -1)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("ΔO = %+v, want none", d)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Apply(graph.Batch{graph.Del(-1, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRepairAllocs pins the allocation behaviour of a warm index: an
// update that no kdist entry can see allocates a constant, and so does a
// repair that resets and re-settles a hundred and fifty entries of rows
// that are no match before or after.
func TestWarmRepairAllocs(t *testing.T) {
	// A chain of L nodes leads to a k-node; no z-node exists, so nothing
	// matches (k, z). An x-labeled island carries no finite entry.
	const L, chain, island = 150, 1000, 5000
	g := graph.New()
	g.SetParallelism(1)
	g.AddNode(chain+L, "k")
	for i := 0; i < L; i++ {
		g.AddNode(chain+graph.NodeID(i), "y")
		if i > 0 {
			g.AddEdge(chain+graph.NodeID(i-1), chain+graph.NodeID(i))
		}
	}
	g.AddEdge(chain+L-1, chain+L)
	g.AddNode(island, "x")
	g.AddNode(island+1, "x")
	g.AddEdge(island, island+1)
	ix, err := kws.Build(g, kws.Query{Keywords: []string{"k", "z"}, Bound: L}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := ix.Entry(chain, 0); e.Dist != L || ix.Size() != 0 {
		t.Fatalf("setup: kdist(chain head) = %+v, %d matches", e, ix.Size())
	}
	flip := func(u graph.Update) func() {
		return func() {
			if _, err := ix.Apply(graph.Batch{u}); err != nil {
				t.Fatal(err)
			}
			u = u.Inverse()
		}
	}
	const constant = 2 // the batch, and the closure the keywords fan out through
	far := flip(graph.Del(island, island+1))
	far()
	far()
	if allocs := testing.AllocsPerRun(20, far); allocs > constant {
		t.Fatalf("update that touches no entry: %.1f allocs/op, want at most %d", allocs, constant)
	}
	cut := flip(graph.Del(chain+L-1, chain+L))
	cut()
	cut()
	if allocs := testing.AllocsPerRun(20, cut); allocs > constant {
		t.Fatalf("repair of %d entries: %.1f allocs/op, want at most %d", L, allocs, constant)
	}
	if err := ix.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRowsAllocsIndependentOfAnswer: Rows reads the match table directly,
// so a warm index hands out its answer in one allocation, the rows' array,
// whether |Q(G)| is 10 or 10000 — no distance vector is copied per root.
func TestRowsAllocsIndependentOfAnswer(t *testing.T) {
	allocs := func(n int) float64 {
		// n a-nodes each point at one b-node: every a-node and the b-node
		// are roots of (a, b).
		g := graph.New()
		g.AddNode(0, "b")
		for v := graph.NodeID(1); v <= graph.NodeID(n); v++ {
			g.AddNode(v, "a")
			g.AddEdge(v, 0)
			g.AddEdge(0, v)
		}
		ix, err := kws.Build(g, kws.Query{Keywords: []string{"a", "b"}, Bound: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Size() != n+1 || ix.Rows().Len() != n+1 {
			t.Fatalf("%d roots, %d rows; want %d", ix.Size(), ix.Rows().Len(), n+1)
		}
		return testing.AllocsPerRun(10, func() { ix.Rows() })
	}
	small, large := allocs(10), allocs(10000)
	if small != large || large > 1 {
		t.Fatalf("Rows allocates %.1f times over 11 roots and %.1f over 10001, want 1 both", small, large)
	}
}
