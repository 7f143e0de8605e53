package graph

// Tests for the sharded substrate: shard-count invariance of the abstract
// graph, cross-shard edge bookkeeping, rebalance (SetShards), and
// ApplyBatch on a sharded graph pinned against the unit loop on an
// unsharded one — including error parity on invalid batches.

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomSharded builds a random labeled graph on n nodes with the given
// shard count and parallelism.
func randomSharded(tb testing.TB, n, shards, workers int, seed int64) *Graph {
	tb.Helper()
	g := NewSharded(shards)
	g.SetParallelism(workers)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i), fmt.Sprintf("l%d", rng.Intn(5)))
	}
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(rng.Intn(i)), NodeID(i))
	}
	for i := 0; i < 3*n; i++ {
		v, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if v != w && !g.HasEdge(v, w) {
			g.AddEdge(v, w)
		}
	}
	return g
}

// randomBatch generates a batch valid against g in sequence order,
// mutating a scratch clone to track applicability.
func randomBatch(scratch *Graph, count int, rng *rand.Rand) Batch {
	var b Batch
	maxID := int64(scratch.MaxNodeID())
	for len(b) < count {
		if rng.Intn(2) == 0 {
			// Insertion, sometimes with a brand-new endpoint.
			v := NodeID(rng.Int63n(maxID + 1))
			w := NodeID(rng.Int63n(maxID + 1))
			if rng.Intn(8) == 0 {
				maxID++
				w = NodeID(maxID)
			}
			u := InsNew(v, w, "new", "new")
			if scratch.HasEdge(v, w) {
				continue
			}
			if err := scratch.Apply(u); err != nil {
				continue
			}
			b = append(b, u)
		} else {
			es := scratch.EdgesSorted()
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			u := Del(e.From, e.To)
			if err := scratch.Apply(u); err != nil {
				continue
			}
			b = append(b, u)
		}
	}
	return b
}

func TestShardOfConsistent(t *testing.T) {
	g := NewSharded(8)
	if g.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", g.NumShards())
	}
	seen := make(map[int]int)
	for v := NodeID(0); v < 4096; v++ {
		s := g.ShardOf(v)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d) = %d out of range", v, s)
		}
		seen[s]++
	}
	// The multiplicative hash must not collapse sequential IDs onto a few
	// shards: every shard should own a reasonable share of 4096 IDs.
	for s, n := range seen {
		if n < 4096/8/4 {
			t.Fatalf("shard %d owns only %d of 4096 sequential IDs", s, n)
		}
	}
}

func TestCrossShardEdges(t *testing.T) {
	g := NewSharded(4)
	// Find two nodes on different shards and one pair sharing a shard.
	var a, b NodeID = -1, -1
	for v := NodeID(0); v < 100 && (a < 0 || b < 0); v++ {
		if a < 0 {
			a = v
			continue
		}
		if g.ShardOf(v) != g.ShardOf(a) {
			b = v
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("no cross-shard pair found")
	}
	g.AddNode(a, "x")
	g.AddNode(b, "y")
	if !g.AddEdge(a, b) || !g.AddEdge(b, a) {
		t.Fatal("cross-shard edges not inserted")
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) || g.NumEdges() != 2 {
		t.Fatalf("cross-shard edge bookkeeping wrong: |E|=%d", g.NumEdges())
	}
	if g.OutDegree(a) != 1 || g.InDegree(a) != 1 {
		t.Fatalf("degrees of %d: out=%d in=%d, want 1/1", a, g.OutDegree(a), g.InDegree(a))
	}
	// Deleting the node on one shard must clean the adjacency recorded on
	// the other endpoint's shard.
	if !g.DeleteNode(b) {
		t.Fatal("DeleteNode failed")
	}
	if g.NumEdges() != 0 || g.OutDegree(a) != 0 || g.InDegree(a) != 0 {
		t.Fatalf("cross-shard cleanup failed: |E|=%d out=%d in=%d",
			g.NumEdges(), g.OutDegree(a), g.InDegree(a))
	}
}

func TestSetShardsRebalance(t *testing.T) {
	g := randomSharded(t, 400, 1, 1, 7)
	want := g.Clone()
	for _, p := range []int{8, 2, 16, 1} {
		g.SetShards(p)
		if g.NumShards() != p {
			t.Fatalf("NumShards = %d, want %d", g.NumShards(), p)
		}
		if !g.Equal(want) || !want.Equal(g) {
			t.Fatalf("reshard to %d shards changed the graph", p)
		}
		// Slots were reissued: the traversal kernels must still cover the
		// whole graph without stamp collisions.
		count := 0
		g.BFSFrom(g.NodesSorted(), func(NodeID, int) bool { count++; return true })
		if count != g.NumNodes() {
			t.Fatalf("after reshard to %d: BFS covered %d of %d nodes", p, count, g.NumNodes())
		}
		// Label index must survive: compare against the unsharded answer.
		for _, l := range []string{"l0", "l1", "l2", "l3", "l4"} {
			a, b := fmt.Sprint(g.NodesWithLabel(l)), fmt.Sprint(want.NodesWithLabel(l))
			if a != b {
				t.Fatalf("after reshard to %d: NodesWithLabel(%q) = %s, want %s", p, l, a, b)
			}
		}
	}
	// Rounding and clamping.
	g.SetShards(3)
	if g.NumShards() != 4 {
		t.Fatalf("SetShards(3) → %d shards, want 4", g.NumShards())
	}
	g.SetShards(MaxShards * 2)
	if g.NumShards() != MaxShards {
		t.Fatalf("SetShards(2·max) → %d shards, want %d", g.NumShards(), MaxShards)
	}
}

// TestSetShardsCanonical re-shards two Equal graphs with different histories
// — one built in ascending order on one shard, the other in descending order
// on two, with nodes and edges that came and went — and requires every shard
// of the two to export the same state, slots and allocator included: a
// re-shard issues slots by NodeID, not by the old shards' map order. One run
// can pass by luck of map order, so the test rebuilds both histories and
// checks them 20 times.
func TestSetShardsCanonical(t *testing.T) {
	for run := 0; run < 20; run++ {
		checkSetShardsCanonical(t, run)
	}
}

func checkSetShardsCanonical(t *testing.T, run int) {
	t.Helper()
	a := randomSharded(t, 300, 1, 1, 3)
	b := NewSharded(2)
	nodes := a.NodesSorted()
	for i := len(nodes) - 1; i >= 0; i-- {
		b.AddNode(nodes[i], a.Label(nodes[i]))
		b.AddNode(NodeID(1000+i), "gone")
	}
	edges := a.EdgesSorted()
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		b.AddEdge(e.From, e.To)
		b.AddEdge(e.To, NodeID(1000+i%len(nodes)))
	}
	for i := range nodes {
		b.DeleteNode(NodeID(1000 + i))
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("run %d setup: the two histories built different graphs", run)
	}
	for _, p := range []int{4, 8, 16} {
		a.SetShards(p)
		b.SetShards(p)
		for s := 0; s < p; s++ {
			// Printed, an empty adjacency list reads the same whether the
			// history left it nil or not.
			if x, y := fmt.Sprint(a.ExportShard(s)), fmt.Sprint(b.ExportShard(s)); x != y {
				t.Fatalf("run %d: at %d shards, shard %d exports differently:\n%s\n%s", run, p, s, x, y)
			}
		}
	}
}

// TestShardedApplyBatchMatchesUnsharded drives the same randomized update
// stream through ApplyBatch on an 8-shard graph and the unit loop on a
// one-shard graph, and requires identical graphs after every batch. This
// is the substrate half of the determinism guarantee; the engine half
// lives in the top-level sharded differential test.
func TestShardedApplyBatchMatchesUnsharded(t *testing.T) {
	par := randomSharded(t, 600, 8, 4, 11)
	ser := par.Clone()
	ser.SetShards(1)
	ser.SetParallelism(1)
	scratch := par.Clone()
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 5; round++ {
		b := randomBatch(scratch, 80, rng)
		if err := par.ApplyBatch(b); err != nil {
			t.Fatalf("round %d sharded: %v", round, err)
		}
		for i, u := range b {
			if err := ser.Apply(u); err != nil {
				t.Fatalf("round %d serial update %d: %v", round, i, err)
			}
		}
		if !par.Equal(ser) || !ser.Equal(par) {
			t.Fatalf("round %d: sharded and unsharded graphs diverged", round)
		}
		if a, b := fmt.Sprint(par.EdgesSorted()), fmt.Sprint(ser.EdgesSorted()); a != b {
			t.Fatalf("round %d: sorted edge lists differ", round)
		}
	}
}

// TestShardedApplyBatchErrorParity checks that an invalid batch behaves
// identically on a sharded and an unsharded graph: same error position,
// same partial application.
func TestShardedApplyBatchErrorParity(t *testing.T) {
	par := randomSharded(t, 100, 8, 4, 21)
	ser := par.Clone()
	ser.SetShards(1)
	ser.SetParallelism(1)
	// A long batch with a bad delete in the middle.
	var b Batch
	for i := 0; i < 40; i++ {
		b = append(b, InsNew(NodeID(1000+i), NodeID(1001+i), "n", "n"))
	}
	bad := Del(5000, 5001) // edge that never existed
	b = append(b[:20], append(Batch{bad}, b[20:]...)...)
	errP := par.ApplyBatch(b)
	errS := ser.ApplyBatch(b)
	if errP == nil || errS == nil {
		t.Fatalf("invalid batch accepted: sharded=%v unsharded=%v", errP, errS)
	}
	if errP.Error() != errS.Error() {
		t.Fatalf("error mismatch:\nsharded:   %v\nunsharded: %v", errP, errS)
	}
	if !par.Equal(ser) {
		t.Fatal("partial application differs between the sharded and the unsharded graph")
	}
}

func TestTouchedShards(t *testing.T) {
	g := NewSharded(8)
	b := Batch{Ins(1, 2), Ins(3, 4), Del(1, 2)}
	want := map[int]bool{}
	for _, u := range b {
		want[g.ShardOf(u.From)] = true
		want[g.ShardOf(u.To)] = true
	}
	got := b.TouchedShards(g)
	if len(got) != len(want) {
		t.Fatalf("TouchedShards = %v, want the %d shards of %v", got, len(want), want)
	}
	for i, s := range got {
		if !want[s] {
			t.Fatalf("TouchedShards reported shard %d, not touched", s)
		}
		if i > 0 && got[i-1] >= s {
			t.Fatalf("TouchedShards not sorted/unique: %v", got)
		}
	}
}

// TestEdgesSortedGenerationCache pins the O(1) re-read: between mutations
// EdgesSorted returns the identical backing slice; a mutation invalidates
// it.
func TestEdgesSortedGenerationCache(t *testing.T) {
	g := randomSharded(t, 50, 2, 1, 5)
	a := g.EdgesSorted()
	b := g.EdgesSorted()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("EdgesSorted did not reuse the generation-stamped cache")
	}
	gen := g.Generation()
	g.AddNode(12345, "fresh")
	if g.Generation() == gen {
		t.Fatal("mutation did not bump the generation")
	}
	g.AddEdge(12345, a[0].From)
	c := g.EdgesSorted()
	if len(c) != len(a)+1 {
		t.Fatalf("EdgesSorted after mutation has %d edges, want %d", len(c), len(a)+1)
	}
}
