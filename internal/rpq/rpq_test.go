package rpq

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/rex"
)

func lineGraph(labels ...string) *graph.Graph {
	g := graph.New()
	for i, l := range labels {
		g.AddNode(graph.NodeID(i), l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return g
}

func mustEngine(t testing.TB, g *graph.Graph, q string) *Engine {
	t.Helper()
	e, err := Parse(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSingleNodeMatch(t *testing.T) {
	// A path of length 0 carries one label: node v matches (v,v) iff
	// l(v) ∈ L(Q).
	g := lineGraph("a")
	e := mustEngine(t, g, "a")
	if !e.HasMatch(0, 0) || e.NumMatches() != 1 {
		t.Fatalf("matches = %v", e.Matches())
	}
	e2 := mustEngine(t, g, "b")
	if e2.NumMatches() != 0 {
		t.Fatalf("label mismatch matched")
	}
}

func TestChainMatches(t *testing.T) {
	g := lineGraph("a", "b", "c")
	e := mustEngine(t, g, "a.b.c")
	ms := e.Matches()
	if len(ms) != 1 || ms[0] != (Pair{0, 2}) {
		t.Fatalf("matches = %v", ms)
	}
	// Prefix queries match shorter paths.
	e2 := mustEngine(t, g, "a.b")
	if !e2.HasMatch(0, 1) || e2.NumMatches() != 1 {
		t.Fatalf("prefix matches = %v", e2.Matches())
	}
}

func TestStarAndUnion(t *testing.T) {
	g := lineGraph("a", "a", "a", "b")
	e := mustEngine(t, g, "a.a*")
	// Every a-node reaches every later a-node (including itself).
	want := 3 + 2 + 1
	if e.NumMatches() != want {
		t.Fatalf("a.a* matches = %v", e.Matches())
	}
	e2 := mustEngine(t, g, "a.a*.b")
	if e2.NumMatches() != 3 || !e2.HasMatch(0, 3) {
		t.Fatalf("a.a*.b matches = %v", e2.Matches())
	}
	e3 := mustEngine(t, g, "a.(a+b)")
	if e3.NumMatches() != 3 { // (0,1),(1,2),(2,3)
		t.Fatalf("a.(a+b) matches = %v", e3.Matches())
	}
}

func TestPaperQueryOnCycle(t *testing.T) {
	// The Example 4 query c·(b·a+c)*·c on a graph where c-nodes chain
	// through b·a pairs and other c's.
	g := graph.New()
	g.AddNode(1, "c")
	g.AddNode(2, "b")
	g.AddNode(3, "a")
	g.AddNode(4, "c")
	g.AddNode(5, "c")
	g.AddEdge(1, 2) // c b
	g.AddEdge(2, 3) // b a
	g.AddEdge(3, 4) // a c
	g.AddEdge(4, 5) // c c
	e := mustEngine(t, g, "c.(b.a+c)*.c")
	// c1→b→a→c4 matches (c,ba,c); c1→…→c5 matches (c,ba,c,c)? The string
	// c b a c c parses as c·(b·a)·(c)·c ✓; c4→c5 matches (c,c).
	for _, want := range []Pair{{1, 4}, {1, 5}, {4, 5}} {
		if !e.HasMatch(want.Src, want.Dst) {
			t.Fatalf("missing match %v in %v", want, e.Matches())
		}
	}
	if e.HasMatch(2, 4) || e.HasMatch(1, 3) {
		t.Fatalf("spurious matches: %v", e.Matches())
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitInsertCreatesMatches(t *testing.T) {
	g := lineGraph("a", "b")
	g.AddNode(10, "c")
	e := mustEngine(t, g, "a.b.c")
	if e.NumMatches() != 0 {
		t.Fatalf("premature matches")
	}
	d, err := e.ApplyInsert(graph.Ins(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0] != (Pair{0, 10}) {
		t.Fatalf("delta = %+v", d)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitDeleteRemovesMatches(t *testing.T) {
	g := lineGraph("a", "b", "c")
	e := mustEngine(t, g, "a.b.c")
	d, err := e.ApplyDelete(graph.Del(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 1 || d.Removed[0] != (Pair{0, 2}) {
		t.Fatalf("delta = %+v", d)
	}
	if e.NumMatches() != 0 {
		t.Fatalf("stale matches: %v", e.Matches())
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAlternatePathSurvivesDeletion(t *testing.T) {
	// Two disjoint a→b→c paths between the same endpoints: deleting one
	// keeps the match (mpre support from the other).
	g := graph.New()
	g.AddNode(0, "a")
	g.AddNode(1, "b")
	g.AddNode(2, "b")
	g.AddNode(3, "c")
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	e := mustEngine(t, g, "a.b.c")
	if !e.HasMatch(0, 3) {
		t.Fatalf("setup: match missing")
	}
	d, err := e.ApplyDelete(graph.Del(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("match should survive: %+v", d)
	}
	if !e.HasMatch(0, 3) {
		t.Fatalf("match lost")
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestExample5InterleavedBatch(t *testing.T) {
	// The spirit of Example 5: a batch whose deletion breaks a path and
	// whose insertions reroute it — the match survives with a longer dist.
	g := lineGraph("a", "b", "c")
	g.AddNode(10, "b")
	e := mustEngine(t, g, "a.b.b*.c")
	if !e.HasMatch(0, 2) {
		t.Fatalf("setup failed: %v", e.Matches())
	}
	batch := graph.Batch{
		graph.Del(1, 2),  // break a→b→c
		graph.Ins(1, 10), // reroute a→b→b'→c
		graph.Ins(10, 2),
	}
	d, err := e.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasMatch(0, 2) {
		t.Fatalf("match lost after reroute: %v", e.Matches())
	}
	for _, p := range d.Removed {
		if p == (Pair{0, 2}) {
			t.Fatalf("transient removal leaked into delta")
		}
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNewNodeNewSource(t *testing.T) {
	g := lineGraph("b", "c")
	e := mustEngine(t, g, "a.b.c")
	// Insert a brand-new a-node pointing at the chain: it becomes a new
	// source with a full product BFS.
	d, err := e.Apply(graph.Batch{graph.InsNew(100, 0, "a", "")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0] != (Pair{100, 1}) {
		t.Fatalf("delta = %+v", d)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundednessGadget(t *testing.T) {
	// The Theorem 1 flavor (Fig. 9): one unit insertion with empty ΔO
	// followed by another unit insertion whose ΔO has Θ(n) matches. A
	// bounded algorithm cannot exist, but the localizable/relatively
	// bounded engine must still be correct on both.
	n := 8
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), "a")
		if i > 0 {
			g.AddEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(100+i), "b")
		if i > 0 {
			g.AddEdge(graph.NodeID(100+i-1), graph.NodeID(100+i))
		}
	}
	g.AddNode(999, "c")
	e := mustEngine(t, g, "a.a*.b.b*.c")
	if e.NumMatches() != 0 {
		t.Fatalf("no matches expected yet")
	}
	// Insertion 1: connect the chains; still no match (no c reachable).
	d1, err := e.ApplyInsert(graph.Ins(graph.NodeID(n-1), 100))
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Empty() {
		t.Fatalf("d1 = %+v", d1)
	}
	// Insertion 2: attach the c sink; every a-node now matches.
	d2, err := e.ApplyInsert(graph.Ins(graph.NodeID(100+n-1), 999))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Added) != n {
		t.Fatalf("|ΔO| = %d, want %d", len(d2.Added), n)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineErrors(t *testing.T) {
	g := lineGraph("a", "b")
	if _, err := NewEngine(g, nil, nil); err == nil {
		t.Fatalf("nil query accepted")
	}
	if _, err := Parse(g, "a..b", nil); err == nil {
		t.Fatalf("bad query accepted")
	}
	e := mustEngine(t, g, "a.b")
	if _, err := e.ApplyInsert(graph.Del(0, 1)); err == nil {
		t.Fatalf("ApplyInsert accepted delete")
	}
	if _, err := e.ApplyDelete(graph.Ins(0, 1)); err == nil {
		t.Fatalf("ApplyDelete accepted insert")
	}
	if _, err := e.Apply(graph.Batch{graph.Del(1, 0)}); err == nil {
		t.Fatalf("missing edge deletion accepted")
	}
	if _, err := e.Apply(graph.Batch{graph.Ins(0, 1)}); err == nil {
		t.Fatalf("duplicate insertion accepted")
	}
}

func randomLabeled(rng *rand.Rand, n, m int, labels []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}

func randomBatch(rng *rand.Rand, g *graph.Graph, k int, labels []string) graph.Batch {
	sim := g.Clone()
	var batch graph.Batch
	maxID := sim.MaxNodeID()
	for len(batch) < k {
		nodes := sim.NodesSorted()
		v := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(5) {
		case 0, 1:
			succ := sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			u := graph.Del(v, succ[rng.Intn(len(succ))])
			sim.Apply(u)
			batch = append(batch, u)
		case 2:
			maxID++
			u := graph.InsNew(v, maxID, "", labels[rng.Intn(len(labels))])
			sim.Apply(u)
			batch = append(batch, u)
		default:
			w := nodes[rng.Intn(len(nodes))]
			if sim.HasEdge(v, w) {
				continue
			}
			u := graph.Ins(v, w)
			sim.Apply(u)
			batch = append(batch, u)
		}
	}
	return batch
}

func TestIncrementalEqualsBatchRandomized(t *testing.T) {
	// The core equivalence property: after random batches, the full
	// marking tables (dist, cpre, mpre) and the match set must equal a
	// batch rebuild, for both IncRPQ and IncRPQn.
	labels := []string{"a", "b", "c"}
	queries := []string{"a.b", "a.b*.c", "a.(b+c)*.a", "c.(b.a+c)*.c", "a.a*"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := queries[int(seed)%len(queries)]
		g := randomLabeled(rng, 20, 45, labels)
		batch := randomBatch(rng, g, 10, labels)

		eb := mustEngine(t, g.Clone(), q)
		if _, err := eb.Apply(batch); err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		if err := eb.Check(); err != nil {
			t.Fatalf("seed %d (%s): IncRPQ: %v", seed, q, err)
		}

		eu := mustEngine(t, g.Clone(), q)
		if _, err := eu.ApplyUnitwise(batch); err != nil {
			t.Fatalf("seed %d: ApplyUnitwise: %v", seed, err)
		}
		if err := eu.Check(); err != nil {
			t.Fatalf("seed %d (%s): IncRPQn: %v", seed, q, err)
		}

		if !eb.Graph().Equal(eu.Graph()) {
			t.Fatalf("seed %d: graphs diverge", seed)
		}
		mb, mu := eb.Matches(), eu.Matches()
		if len(mb) != len(mu) {
			t.Fatalf("seed %d: match sets diverge: %d vs %d", seed, len(mb), len(mu))
		}
		for i := range mb {
			if mb[i] != mu[i] {
				t.Fatalf("seed %d: match %d: %v vs %v", seed, i, mb[i], mu[i])
			}
		}
	}
}

func TestDeltaConsistencyRandomized(t *testing.T) {
	// Property: old matches ⊕ Delta == new matches.
	labels := []string{"a", "b", "c"}
	for seed := int64(50); seed < 62; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomLabeled(rng, 18, 40, labels)
		e := mustEngine(t, g, "a.b*.c")
		before := make(map[Pair]bool)
		for _, p := range e.Matches() {
			before[p] = true
		}
		batch := randomBatch(rng, g, 8, labels)
		d, err := e.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Removed {
			if !before[p] {
				t.Fatalf("seed %d: removed non-match %v", seed, p)
			}
			delete(before, p)
		}
		for _, p := range d.Added {
			if before[p] {
				t.Fatalf("seed %d: added existing match %v", seed, p)
			}
			before[p] = true
		}
		after := e.Matches()
		if len(after) != len(before) {
			t.Fatalf("seed %d: delta wrong: %d vs %d", seed, len(after), len(before))
		}
		for _, p := range after {
			if !before[p] {
				t.Fatalf("seed %d: match %v unexplained by delta", seed, p)
			}
		}
	}
}

func TestMatchesAgreeWithASTSemantics(t *testing.T) {
	// Cross-validate the engine against brute-force path enumeration with
	// the AST matcher on tiny graphs (paths up to length 4).
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := randomLabeled(rng, 7, 12, []string{"a", "b"})
		ast := rex.MustParse("a.b*.a")
		e, err := NewEngine(g, ast, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: enumerate all paths up to length 6 (node count bound
		// is small, but cycles allow longer matches — restrict to length 6
		// and only verify brute-force-found matches are present).
		type st struct {
			v    graph.NodeID
			path []string
		}
		for _, src := range g.NodesSorted() {
			stack := []st{{src, []string{g.Label(src)}}}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if ast.MatchSeq(cur.path) && !e.HasMatch(src, cur.v) {
					t.Fatalf("missing match (%d,%d) via %v", src, cur.v, cur.path)
				}
				if len(cur.path) >= 6 {
					continue
				}
				for _, w := range g.SuccessorsSorted(cur.v) {
					np := append(append([]string{}, cur.path...), g.Label(w))
					stack = append(stack, st{w, np})
				}
			}
		}
	}
}

func TestRelativeBoundednessSmoke(t *testing.T) {
	// An update far from any source's reachable product area must cost
	// little even on a much larger graph, as long as AFF stays fixed.
	run := func(extra int) int {
		g := graph.New()
		g.AddNode(0, "a")
		g.AddNode(1, "b")
		g.AddNode(2, "c")
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		// Ballast: a long z-chain, unreachable and unmatched.
		for i := 0; i < extra; i++ {
			id := graph.NodeID(100 + i)
			g.AddNode(id, "z")
			if i > 0 {
				g.AddEdge(id-1, id)
			}
		}
		e, err := Parse(g, "a.b.c", nil)
		if err != nil {
			t.Fatal(err)
		}
		m := &cost.Meter{}
		e.meter = m
		if _, err := e.Apply(graph.Batch{graph.Del(1, 2), graph.Ins(0, 2)}); err != nil {
			t.Fatal(err)
		}
		return m.Total()
	}
	small := run(10)
	big := run(4000)
	if big != small {
		t.Fatalf("IncRPQ cost grew with |G|: %d vs %d", small, big)
	}
}

func TestWitness(t *testing.T) {
	g := lineGraph("a", "b", "b", "c")
	e := mustEngine(t, g, "a.b*.c")
	path, ok := e.Witness(0, 3)
	if !ok {
		t.Fatalf("witness missing for (0,3)")
	}
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Fatalf("witness = %v", path)
	}
	if err := e.VerifyWitness(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Witness(1, 3); ok {
		t.Fatalf("witness for non-match")
	}
	if _, ok := e.Witness(99, 3); ok {
		t.Fatalf("witness for missing source")
	}
	// Single-node witness.
	g2 := lineGraph("a")
	e2 := mustEngine(t, g2, "a")
	p2, ok := e2.Witness(0, 0)
	if !ok || len(p2) != 1 {
		t.Fatalf("self witness = %v %v", p2, ok)
	}
	if err := e2.VerifyWitness(p2); err != nil {
		t.Fatal(err)
	}
	if err := e2.VerifyWitness(nil); err == nil {
		t.Fatalf("empty witness accepted")
	}
}

func TestWitnessSurvivesUpdates(t *testing.T) {
	// Property: after random update batches, every match has a verifiable
	// witness of length dist.
	labels := []string{"a", "b", "c"}
	for seed := int64(400); seed < 408; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomLabeled(rng, 15, 35, labels)
		e := mustEngine(t, g, "a.b*.c")
		batch := randomBatch(rng, g, 8, labels)
		if _, err := e.Apply(batch); err != nil {
			t.Fatal(err)
		}
		for _, m := range e.Matches() {
			path, ok := e.Witness(m.Src, m.Dst)
			if !ok {
				t.Fatalf("seed %d: match %v has no witness", seed, m)
			}
			if err := e.VerifyWitness(path); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestWriteAnswerBytes pins the answer bytes to the fmt rendering they
// replaced, on pairs with negative, one-digit and many-digit IDs.
func TestWriteAnswerBytes(t *testing.T) {
	g := graph.New()
	ids := []graph.NodeID{-1234567, -3, 7, 42, 1 << 40}
	for _, v := range ids {
		g.AddNode(v, "a")
	}
	for i := range ids {
		g.AddEdge(ids[i], ids[(i+1)%len(ids)])
	}
	e := mustEngine(t, g, "a.a*")
	var want bytes.Buffer
	for _, p := range e.Matches() {
		fmt.Fprintf(&want, "pair %d %d\n", p.Src, p.Dst)
	}
	var got bytes.Buffer
	if err := e.WriteAnswer(&got); err != nil {
		t.Fatal(err)
	}
	if e.NumMatches() != len(ids)*len(ids) || got.String() != want.String() {
		t.Fatalf("answer of %d pairs:\n%swant:\n%s", e.NumMatches(), got.String(), want.String())
	}
}
