package scc

// Tests of the dense layout: a randomized history on a giant-SCC graph and
// a small one, checked against the batch algorithm after every batch,
// allocation regressions of the scoped repair and the searches, run-to-run
// and shard-count determinism of the metered work, and the pins on the
// benchmark's cycles: exact work, batch and unit, and a digest of what the
// engine publishes.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/history"
)

// TestRandomHistory drives internal/history's seeded histories — batches
// of 1, 4, 32 and 256, insertions that create nodes below, just above and
// far above the ID range, pairs that cancel within the batch, a
// shard-count change half way — over livej-sim (one SCC through three
// quarters of the nodes) and over a small random digraph, and after every
// batch audits the state and judges ΔO and the answer against Tarjan's
// partition from scratch (history.CheckStep), for IncSCC and the
// unit-at-a-time IncSCCn, at 1 and 8 workers (helpers forced in). On the
// small digraph the DynSCC baseline follows the same batches and must
// partition as Tarjan does. ΔO must be non-empty at some step.
func TestRandomHistory(t *testing.T) {
	defer graph.EagerFanOut()()
	graphs := []struct {
		name string
		g    *graph.Graph
		dyn  bool // the DynSCC baseline follows the batches
	}{
		{"giant", giantGraph(t), false},
		{"small", history.RandomGraph(rand.New(rand.NewSource(3)), 30, 60, "x"), true},
	}
	apply := []struct {
		name string
		do   func(*State, graph.Batch) (Delta, error)
	}{
		{"Apply", (*State).Apply},
		{"ApplyUnitwise", (*State).ApplyUnitwise},
	}
	sizes := []int{1, 4, 32, 256, 32, 4, 1, 32}
	for gi, gr := range graphs {
		for _, ap := range apply {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/workers%d", gr.name, ap.name, workers), func(t *testing.T) {
					g := gr.g.Clone()
					g.SetShards(2)
					g.SetParallelism(workers)
					h := history.New(g, int64(101+gi))
					s := mustState(t, g)
					dyn := BuildDyn(g.Clone(), nil)
					was, moved := graph.RaggedRows(Components(g)), 0
					const rounds = 5
					for step := 0; step < rounds*len(sizes); step++ {
						if step == rounds*len(sizes)/2 {
							g.SetShards(8)
						}
						b := h.Batch(sizes[step%len(sizes)])
						d, err := ap.do(s, b)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
						}
						now := Components(g)
						if err := history.CheckStep(s, was, graph.RaggedRows(now), s.Rows(), d); err != nil {
							t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
						}
						if gr.dyn {
							if err := dyn.Apply(b); err != nil {
								t.Fatalf("step %d: DynSCC: %v", step, err)
							}
							if err := dyn.Check(); err != nil || !partitionsEqual(dyn.ComponentsSorted(), now) {
								t.Fatalf("step %d (|ΔG|=%d): DynSCC partitions otherwise (%v)", step, len(b), err)
							}
						}
						was = graph.RaggedRows(now)
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

// giantOf returns the largest component of s.
func giantOf(s *State) CompID {
	var giant CompID
	for c, m := range s.members {
		if len(m) > len(s.members[giant]) {
			giant = c
		}
	}
	return giant
}

// TestScopedRepairAllocs pins the allocation behaviour of the scoped
// repair on a warm state: a pass that finds the component intact allocates
// nothing, nor do the searches that prove it intact without a pass, and a
// peel that cuts one member off, with the merge that takes it back,
// allocates per part, not per member.
func TestScopedRepairAllocs(t *testing.T) {
	g := giantGraph(t)
	s := mustState(t, g)
	giant := giantOf(s)
	size := len(s.members[giant])
	if size < 1000 {
		t.Fatalf("giant component has %d nodes, want a large one", size)
	}
	dt := s.newDeltaTracker()
	s.repair(giant, dt) // warm the scratch and the sorted-adjacency caches
	if allocs := testing.AllocsPerRun(20, func() { s.repair(giant, dt) }); allocs != 0 {
		t.Fatalf("scoped repair of an intact %d-node component: %.1f allocs/op, want 0", size, allocs)
	}
	if len(dt.born)+len(dt.destroyed) != 0 {
		t.Fatal("an intact repair reported a change")
	}
	// The searches that prove a dirty component intact allocate nothing
	// once their scratch is warm: here from the smallest member to the
	// largest, as if an edge between them had gone.
	members := s.members[giant]
	far := []graph.Update{graph.Del(members[0], members[len(members)-1])}
	s.dirty[giant] = true
	search := func() {
		if s.settle(giant, far, dt); s.members[giant] == nil {
			t.Fatal("the search lost a path inside the giant component")
		}
	}
	search()
	if allocs := testing.AllocsPerRun(20, search); allocs != 0 {
		t.Fatalf("searches proving a %d-node component intact: %.1f allocs/op, want 0", size, allocs)
	}

	// A member whose only way in from the component is one edge: deleting
	// that edge splits it off, re-inserting it merges it back.
	var cut graph.Update
	found := false
	for _, w := range s.members[giant] {
		var inside []graph.NodeID
		for _, p := range g.PredecessorsSorted(w) {
			if s.compOf(p) == giant {
				inside = append(inside, p)
			}
		}
		if len(inside) == 1 && inside[0] != w {
			cut, found = graph.Del(inside[0], w), true
			break
		}
	}
	if !found {
		t.Fatal("no member hangs on a single in-edge")
	}
	splits := 0
	cycle := func() {
		d, err := s.ApplyDelete(cut)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Removed) == 1 && len(d.Added) >= 2 {
			splits++
		}
		if _, err := s.ApplyInsert(cut.Inverse()); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if splits != 12 {
		t.Fatalf("%d of 12 deletions split the component", splits)
	}
	// The deletion peels the member off (a source side of one node): one
	// member list for the remainder, one backing array and two G_c maps for
	// the part; the merge builds one member list and its search sets over
	// G_c. That is 35 objects, and a scoped Tarjan's split (a spent search
	// budget) with the same merge takes 35 too: the limit. Both took 41
	// while Repair grouped each batch in fresh maps and slices. Neither may
	// touch the heap per member (the map-backed layout allocated 11 105
	// here), and the two rows the edge sits in keep their capacity.
	limit := 35.0
	if raceDetector {
		limit = 100 // the merge's pass over G_c may have to rebuild its scratch
	}
	if allocs > limit {
		t.Fatalf("split + merge of a %d-node component: %.0f allocs/op, want at most %.0f", size, allocs, limit)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// hubbed adds hub nodes of degree ~40, far above the graph's mean.
func hubbed(tb testing.TB, shards int) *graph.Graph {
	g := giantGraph(tb)
	g.SetShards(shards)
	rng := rand.New(rand.NewSource(5))
	nodes := g.NodesSorted()
	for hub := 0; hub < 8; hub++ {
		v := nodes[rng.Intn(len(nodes))]
		for i := 0; i < 40; i++ {
			w := nodes[rng.Intn(len(nodes))]
			if v == w {
				continue
			}
			if i%2 == 0 {
				g.AddEdge(v, w)
			} else {
				g.AddEdge(w, v)
			}
		}
	}
	return g
}

// TestMeteredWorkDeterministic replays one stream twice on the same
// deployment shape and once on another shard count: the work metered per
// batch and ΔO must be the same in all three. The DFS order once followed
// Go's map iteration over hub adjacency, which made the totals differ from
// run to run. The totals of one fixed cycle are pinned as well.
func TestMeteredWorkDeterministic(t *testing.T) {
	replay := func(shards int) []string {
		g := hubbed(t, shards)
		stream := repairStream(g, 40, 32, 11)
		m := &cost.Meter{}
		s := Build(g, m)
		trace := []string{m.String()}
		for _, b := range stream {
			d, err := s.Apply(b)
			if err != nil {
				t.Fatal(err)
			}
			trace = append(trace, fmt.Sprintf("%v +%v -%v", m, d.Added, d.Removed))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	base := replay(1)
	for name, other := range map[string][]string{"second run": replay(1), "shards=8": replay(8)} {
		for i := range base {
			if base[i] != other[i] {
				t.Fatalf("%s diverges at batch %d:\n  %s\n  %s", name, i, base[i], other[i])
			}
		}
	}

	// The cycle BenchmarkIncSCCRepairGiant commits, held to the work the
	// engine meters for it: a pass that visits neighbours in another order
	// builds another DFS tree, or a search that expands its sides in
	// another order meets elsewhere, and these totals move.
	const want = "cost{nodes=18640 edges=97333 entries=101 heap=0 total=116074}"
	if got := cycleWork(t, (*State).Apply).String(); got != want {
		t.Fatalf("the benchmark cycle metered %s, want %s", got, want)
	}
}

// cycleWork meters apply over the cycle BenchmarkIncSCCRepairGiant commits,
// from a state built on the seed graph.
func cycleWork(t *testing.T, apply func(*State, graph.Batch) (Delta, error)) *cost.Meter {
	g := giantGraph(t)
	m := &cost.Meter{}
	s := Build(g, m)
	m.Reset()
	for _, b := range repairCycle(g) {
		if _, err := apply(s, b); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestBatchWorkAtMostUnit is the paper's Exp-2 for IncSCC as an exact
// count: over the cycle BenchmarkIncSCCRepairGiant commits, batch IncSCC
// meters no more work than IncSCCn, which applies the same updates one at a
// time. Both totals are pinned.
func TestBatchWorkAtMostUnit(t *testing.T) {
	batch, unit := cycleWork(t, (*State).Apply), cycleWork(t, (*State).ApplyUnitwise)
	if batch.Total() > unit.Total() {
		t.Fatalf("batch IncSCC metered %v, more than IncSCCn's %v", batch, unit)
	}
	const want = "cost{nodes=18667 edges=97459 entries=101 heap=0 total=116227}"
	if got := unit.String(); got != want {
		t.Fatalf("IncSCCn over the benchmark cycle metered %s, want %s", got, want)
	}
}

// digestCycle hashes, after every batch of the benchmark's repair cycle and
// of the split cycle, what write writes about the state and the batch's ΔO,
// through Apply and through ApplyUnitwise, and compares the two digests
// with want.
func digestCycle(t *testing.T, want [2]string, write func(h io.Writer, s *State, d Delta)) {
	g := giantGraph(t)
	cycle := append(repairCycle(g), cycleOf(splitStream(g, 32))...)
	for i, mode := range []struct {
		name  string
		apply func(*State, graph.Batch) (Delta, error)
	}{{"Apply", (*State).Apply}, {"ApplyUnitwise", (*State).ApplyUnitwise}} {
		s := Build(g.Clone(), nil)
		h := sha256.New()
		for _, b := range cycle {
			d, err := mode.apply(s, b)
			if err != nil {
				t.Fatal(err)
			}
			write(h, s, d)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[i] {
			t.Errorf("%s: %d batches digest to %s, want %s", mode.name, len(cycle), got, want[i])
		}
	}
}

// TestOutputDigest hashes what the engine publishes — ΔO and the
// WriteAnswer bytes — after every batch. Unlike the meter pins and the
// internals digest, it must never move: how a component is proved intact or
// taken apart is the engine's business, what it publishes is not.
func TestOutputDigest(t *testing.T) {
	digestCycle(t, [2]string{
		"66c13222712d42988a59146aaa916e37a091ee37c2e094e1879fa8fff3ccc236",
		"66c13222712d42988a59146aaa916e37a091ee37c2e094e1879fa8fff3ccc236",
	}, func(h io.Writer, s *State, d Delta) {
		fmt.Fprintf(h, "+%v -%v\n", d.Added, d.Removed)
		if err := s.WriteAnswer(h); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInternalsDigest hashes every component's CompID and rank after every
// batch: the order in which a split mints its parts and slots their ranks.
// It moves when that order does; TestOutputDigest must not.
func TestInternalsDigest(t *testing.T) {
	digestCycle(t, [2]string{
		"6bd33473960637a55b1d55de9827c7aa405db6bcedfcee1c4a4c6384db0e5227",
		"1890fc34acd9671e4969315f01cbd05114df97ea8cf55b6497af23d9b74eb0a3",
	}, func(h io.Writer, s *State, _ Delta) {
		for _, members := range s.ComponentsSorted() {
			c := s.compOf(members[0])
			fmt.Fprintf(h, "%d %x\n", c, math.Float64bits(s.rank[c]))
		}
	})
}

// TestMirrorFollowsEdges drives the mirror where its rows move most: at a
// hub whose adjacency the graph keeps as a hash set, at nodes created by
// the batch that links them, and at late nodes whose IDs sort before,
// between and after their neighbours'.
func TestMirrorFollowsEdges(t *testing.T) {
	const hub, n = 50, 100
	g := graph.New()
	for v := graph.NodeID(0); v < n; v++ {
		g.AddNode(v, "")
	}
	for v := graph.NodeID(0); v < n; v += 2 { // out- and in-degree 50 at the hub
		g.AddEdge(hub, v)
		g.AddEdge(v, hub)
	}
	s := mustState(t, g)
	apply := func(b graph.Batch) {
		t.Helper()
		if _, err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after %v: %v", b, err)
		}
	}
	// Rows grow and shrink at the front, in the middle and at the end.
	apply(graph.Batch{graph.Ins(hub, 1), graph.Ins(hub, 51), graph.Ins(hub, 99), graph.Ins(99, hub), graph.Del(hub, 0), graph.Del(48, hub)})
	// Nodes the batch creates, linked to the hub, to each other and to
	// themselves; their indices are the largest, their IDs are not.
	apply(graph.Batch{
		graph.InsNew(hub, -7, "", "x"), graph.InsNew(-7, hub, "x", ""),
		graph.InsNew(1<<41, -7, "y", "x"), graph.InsNew(-7, 1<<41, "x", "y"),
		graph.InsNew(hub, 1<<41, "", "y"), graph.InsNew(n, n, "z", "z"), graph.Ins(n, hub),
	})
	apply(graph.Batch{graph.Del(hub, -7), graph.Del(1<<41, -7), graph.Ins(-7, 3), graph.Del(n, n)})
	// An insertion cancelled within its batch still creates its node, with
	// empty rows.
	apply(graph.Batch{graph.InsNew(-9, hub, "w", ""), graph.Del(-9, hub)})
	if c, ok := s.CompOf(-9); !ok || len(s.MembersOf(c)) != 1 {
		t.Fatal("the node of a cancelled insertion is missing")
	}
	// Unit updates go through the same seam.
	for _, u := range []graph.Update{graph.Ins(2, -9), graph.Ins(-9, 2), graph.Del(hub, 2), graph.Del(2, hub)} {
		var err error
		if u.Op == graph.Insert {
			_, err = s.ApplyInsert(u)
		} else {
			_, err = s.ApplyDelete(u)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after %v: %v", u, err)
		}
	}
}

// TestSplitThatRenumbersRanks closes and reopens a ring whose rank window
// shrinks 64-fold per round, so that within a few rounds a split runs out
// of float room and renumbers every rank — a Tarjan pass over G_c in the
// middle of installing the scoped pass that found the split.
func TestSplitThatRenumbersRanks(t *testing.T) {
	const n = 64
	var edges [][2]int64
	for i := int64(0); i < n; i++ {
		edges = append(edges, [2]int64{i, (i + 1) % n})
	}
	// A source above the ring and two sinks below it: the ring's window
	// then ends at rank 1, where float64 has 52 bits to halve, not 1074.
	edges = append(edges, [2]int64{n, 0}, [2]int64{n - 1, n + 1}, [2]int64{n + 1, n + 2})
	s := mustState(t, mkGraph(n+3, edges))
	for round := 0; round < 30; round++ {
		d, err := s.ApplyDelete(graph.Del(n-1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Removed) != 1 || len(d.Added) != n {
			t.Fatalf("round %d: opening the ring gave +%d −%d components", round, len(d.Added), len(d.Removed))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d, ring open: %v", round, err)
		}
		if _, err := s.ApplyInsert(graph.Ins(n-1, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d, ring closed: %v", round, err)
		}
	}
}
