package scc

// Tests of the dense layout: a randomized history on a giant-SCC graph
// checked against the batch algorithm after every batch, allocation
// regressions of the scoped repair, and run-to-run and shard-count
// determinism of the metered work.

import (
	"fmt"
	"math/rand"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// history generates batches that are valid against sim in order, and
// applies them to sim. Deletions and insertions pick uniformly, so on a
// giant-SCC graph most of them land inside the giant component; every
// fifth insertion or so hangs a new node off an existing one, with IDs on
// both sides of the existing range so that late nodes sort before, between
// and after build-time members: negative ones and ones from 2⁴⁰ up, which
// the node index keeps in its map, and ones just above the range, which it
// addresses directly.
type history struct {
	rng          *rand.Rand
	sim          *graph.Graph
	nodes        []graph.NodeID
	lo, hi, huge graph.NodeID // next fresh IDs below, just above and far above the range
	freshNew     int
}

func newHistory(g *graph.Graph, seed int64) *history {
	sim := g.Clone()
	nodes := sim.NodesSorted()
	return &history{
		rng: rand.New(rand.NewSource(seed)), sim: sim, nodes: nodes,
		lo: nodes[0] - 1, hi: nodes[len(nodes)-1] + 1, huge: 1 << 40,
	}
}

func (h *history) batch(k int) graph.Batch {
	var b graph.Batch
	for len(b) < k {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		var u graph.Update
		switch h.rng.Intn(10) {
		case 0, 1, 2, 3: // delete
			succ := h.sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			u = graph.Del(v, succ[h.rng.Intn(len(succ))])
		case 4: // new node, in turn below, just above and far above the range
			var id graph.NodeID
			switch h.freshNew % 3 {
			case 0:
				id = h.lo
				h.lo--
			case 1:
				id = h.hi
				h.hi++
			default:
				id = h.huge
				h.huge += 1 << 20
			}
			h.freshNew++
			if h.rng.Intn(2) == 0 {
				u = graph.InsNew(v, id, "", "x")
			} else {
				u = graph.InsNew(id, v, "x", "")
			}
			h.nodes = append(h.nodes, id)
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

// diffPartitions is ΔO computed the slow way: the components of after that
// before lacks, and the reverse, each in canonical order.
func diffPartitions(before, after [][]graph.NodeID) Delta {
	missingFrom := func(have, in [][]graph.NodeID) [][]graph.NodeID {
		seen := make(map[string]bool, len(in))
		for _, c := range in {
			seen[fmt.Sprint(c)] = true
		}
		var out [][]graph.NodeID
		for _, c := range have {
			if !seen[fmt.Sprint(c)] {
				out = append(out, c)
			}
		}
		return out
	}
	return Delta{Added: missingFrom(after, before), Removed: missingFrom(before, after)}
}

// TestRandomHistoryGiantSCC drives seeded histories over livej-sim (one SCC
// through three quarters of the nodes) — batches of 1, 4, 32 and 256,
// insertions that create nodes, a shard-count change half way — and after
// every batch audits the state and compares ΔO with the difference of the
// batch algorithm's answers, for IncSCC and for the unit-at-a-time IncSCCn.
func TestRandomHistoryGiantSCC(t *testing.T) {
	apply := map[string]func(*State, graph.Batch) (Delta, error){
		"Apply":         (*State).Apply,
		"ApplyUnitwise": (*State).ApplyUnitwise,
	}
	sizes := []int{1, 4, 32, 256, 32, 4, 1, 32}
	for name, do := range apply {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				g, err := gen.Dataset("livej", 0.1, seed)
				if err != nil {
					t.Fatal(err)
				}
				g.SetShards(2)
				h := newHistory(g, 100+seed)
				s := mustState(t, g)
				before := Components(g)
				const rounds = 5
				for step := 0; step < rounds*len(sizes); step++ {
					if step == rounds*len(sizes)/2 {
						g.SetShards(8)
					}
					b := h.batch(sizes[step%len(sizes)])
					got, err := do(s, b)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("step %d (|ΔG|=%d): %v", step, len(b), err)
					}
					after := Components(g)
					want := diffPartitions(before, after)
					if !partitionsEqual(got.Added, want.Added) || !partitionsEqual(got.Removed, want.Removed) {
						t.Fatalf("step %d (|ΔG|=%d): ΔO = +%d −%d components, diff of batch answers = +%d −%d",
							step, len(b), len(got.Added), len(got.Removed), len(want.Added), len(want.Removed))
					}
					before = after
				}
				if !g.Equal(h.sim) {
					t.Fatal("engine graph diverged from the simulated history")
				}
			})
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
// nothing, and one that splits it allocates per part, not per member.
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
	// The split builds one backing array for the parts' member lists and
	// two G_c maps per part, the merge one member list and its search
	// sets over G_c: 61 objects for two parts, with or without the mirror
	// (the two rows the edge sits in keep their capacity). Neither may touch
	// the heap per member (the map-backed layout allocated 11 105 here).
	limit := 61.0
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

// hubbed adds hub nodes whose adjacency sets are in map mode, where
// Successors walks a Go map in random order.
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
// batch and ΔO must be the same in all three. The DFS order used to follow
// Go's map iteration on promoted adjacency sets, which made the totals
// differ from run to run. The totals of one fixed cycle are pinned as well.
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
	// engine metered for it when every pass read the graph's own sorted
	// adjacency: a pass that visits neighbours in another order builds
	// another DFS tree, and these totals move.
	g := giantGraph(t)
	m := &cost.Meter{}
	s := Build(g, m)
	m.Reset()
	for _, b := range repairCycle(g) {
		if _, err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	const want = "cost{nodes=133184 edges=872866 entries=171591 heap=0 total=1177641}"
	if got := m.String(); got != want {
		t.Fatalf("the benchmark cycle metered %s, want %s", got, want)
	}
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
