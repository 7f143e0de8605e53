package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// exportLoadRoundTrip exports every shard of g and reloads them into a
// fresh graph with the same shard count, mimicking what a snapshot load
// does, with all P shards loading at once, one goroutine each.
func exportLoadRoundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	p := g.NumShards()
	states := make([]ShardState, p)
	for s := 0; s < p; s++ {
		st := g.ExportShard(s)
		// Deep-copy the borrowed adjacency so the load owns its slices, as
		// a decoded snapshot segment would.
		for i := range st.Nodes {
			st.Nodes[i].Out = append([]NodeID(nil), st.Nodes[i].Out...)
			st.Nodes[i].In = append([]NodeID(nil), st.Nodes[i].In...)
		}
		states[s] = st
	}
	h := NewSharded(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for s := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = h.LoadShard(s, states[s])
		}()
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("LoadShard(%d): %v", s, err)
		}
	}
	if err := h.FinishLoad(g.Generation()); err != nil {
		t.Fatalf("FinishLoad: %v", err)
	}
	return h
}

func TestExportLoadRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := NewSharded(shards)
			for v := 0; v < 300; v++ {
				g.AddNode(NodeID(v), fmt.Sprintf("l%d", v%7))
			}
			for i := 0; i < 1500; i++ {
				v, w := NodeID(rng.Intn(300)), NodeID(rng.Intn(300))
				g.AddEdge(v, w)
			}
			// Deleted edges leave nodes isolated; the nodes stay.
			for i := 0; i < 40; i++ {
				v := NodeID(i * 7 % 300)
				for _, w := range slices.Clone(g.SuccessorsSorted(v)) {
					g.DeleteEdge(v, w)
				}
			}
			h := exportLoadRoundTrip(t, g)
			if !g.Equal(h) || !h.Equal(g) {
				t.Fatal("round trip lost graph state")
			}
			if got, want := h.Generation(), g.Generation(); got != want {
				t.Fatalf("generation: got %d want %d", got, want)
			}
			// The load issues each shard's slots in ID order: shard s's
			// i-th smallest node holds local slot i.
			for s := 0; s < shards; s++ {
				if x, y := fmt.Sprint(g.ExportShard(s)), fmt.Sprint(h.ExportShard(s)); x != y {
					t.Fatalf("shard %d exports differently after the round trip", s)
				}
				for i, n := range h.ExportShard(s).Nodes {
					if got, want := h.index.Of(n.ID), int32(i*shards+s); got != want {
						t.Fatalf("shard %d: node %d at slot %d, want %d", s, n.ID, got, want)
					}
				}
			}
		})
	}
}

func TestLoadShardRejectsBadState(t *testing.T) {
	g := NewSharded(4)
	g.AddNode(1, "a")
	st := g.ExportShard(g.ShardOf(1))

	h := NewSharded(4)
	wrong := (g.ShardOf(1) + 1) % 4
	if err := h.LoadShard(wrong, st); err == nil {
		t.Fatal("want error loading node into wrong shard")
	}
	h = NewSharded(4)
	bad := st
	bad.Nodes = append(slices.Clone(st.Nodes), st.Nodes[0]) // node 1 twice
	if err := h.LoadShard(g.ShardOf(1), bad); err == nil {
		t.Fatal("want error for a duplicate node")
	}
	if h.NumNodes() != 0 || h.NumShardNodes(g.ShardOf(1)) != 0 {
		t.Fatal("a rejected state left nodes behind")
	}
	h = NewSharded(2)
	if err := h.LoadShard(0, ShardState{}); err != nil {
		t.Fatalf("empty shard state should load: %v", err)
	}
	if err := h.LoadShard(5, ShardState{}); err == nil {
		t.Fatal("want error for out-of-range shard")
	}
}

func TestValidateBatch(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	g.AddEdge(1, 2)
	gen := g.Generation()

	cases := []struct {
		b  Batch
		ok bool
	}{
		{Batch{Ins(2, 1)}, true},
		{Batch{Ins(1, 2)}, false},                        // exists
		{Batch{Del(2, 1)}, false},                        // missing
		{Batch{Del(1, 2), Ins(1, 2)}, true},              // delete then re-insert
		{Batch{Ins(2, 1), Ins(2, 1)}, false},             // in-batch duplicate, though its normal form is valid
		{Batch{InsNew(3, 4, "c", "d"), Del(3, 4)}, true}, // new nodes then delete
	}
	for i, c := range cases {
		err := g.ValidateBatch(c.b)
		if (err == nil) != c.ok {
			t.Errorf("case %d: ValidateBatch=%v want ok=%v", i, err, c.ok)
		}
		// ValidateNormalize agrees, and hands over the normal form.
		norm, nerr := g.ValidateNormalize(c.b)
		if fmt.Sprint(nerr) != fmt.Sprint(err) || c.ok && !slices.Equal(norm, c.b.Normalize()) {
			t.Errorf("case %d: ValidateNormalize = %v, %v; want %v, %v", i, norm, nerr, c.b.Normalize(), err)
		}
	}
	if g.Generation() != gen {
		t.Fatal("ValidateBatch mutated the graph")
	}
	// Validated batches must actually apply.
	if err := g.ApplyBatch(Batch{Ins(2, 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateBatchErrorText pins the error of every bad-batch shape byte
// for byte, update index included — with and without an edge touched twice,
// i.e. on both sides of ValidateBatch's in-batch-state shortcut — and that
// a batch without a repeat validates without allocating.
func TestValidateBatchErrorText(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	g.AddNode(3, "c")
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	const bad = "graph: update cannot be applied"
	cases := []struct {
		b    Batch
		want string
	}{
		{Batch{Ins(1, 2)}, "update 0: " + bad + ": insert of existing edge (1,2)"},
		{Batch{Del(2, 1)}, "update 0: " + bad + ": delete of missing edge (2,1)"},
		{Batch{InsNew(1, 99, "a", "b"), Del(2, 3), Del(7, 8)}, "update 2: " + bad + ": delete of missing edge (7,8)"},
		{Batch{InsNew(1, 99, "a", "b"), Del(2, 3), Ins(3, 1)}, "update 2: " + bad + ": insert of existing edge (3,1)"},
		{Batch{InsNew(1, 99, "a", "b"), Del(2, 3), {Op: 7, From: 1, To: 3}}, "update 2: " + bad + ": unknown op op(7)"},
		{Batch{Ins(2, 1), Ins(2, 1)}, "update 1: " + bad + ": insert of existing edge (2,1)"},
		{Batch{Del(1, 2), Del(1, 2)}, "update 1: " + bad + ": delete of missing edge (1,2)"},
		{Batch{Del(1, 2), Ins(1, 2), Ins(1, 2)}, "update 2: " + bad + ": insert of existing edge (1,2)"},
		{Batch{Ins(2, 1), Del(2, 1), Del(9, 9)}, "update 2: " + bad + ": delete of missing edge (9,9)"},
		{Batch{Ins(2, 1), Del(2, 1), {Op: 7, From: 2, To: 1}}, "update 2: " + bad + ": unknown op op(7)"},
	}
	for i, c := range cases {
		err := g.ValidateBatch(c.b)
		if err == nil || err.Error() != c.want || !errors.Is(err, ErrBadUpdate) {
			t.Errorf("case %d: ValidateBatch = %v, want %q", i, err, c.want)
		}
	}
	ok := Batch{Del(1, 2), Ins(2, 1), InsNew(3, 4, "", "d"), Del(2, 3)}
	for v := NodeID(10); len(ok) < 32; v++ {
		ok = append(ok, InsNew(v, v+100, "a", "b"))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := g.ValidateBatch(ok); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ValidateBatch of a batch without a repeated edge: %.1f allocs, want 0", allocs)
	}
	// A batch that repeats an edge is validated and normalized in one pass
	// over one map: the map and the normal form are its allocations.
	rep := append(slices.Clone(ok[:31]), Del(3, 4))
	if allocs := testing.AllocsPerRun(20, func() {
		if norm, err := g.ValidateNormalize(rep); err != nil || len(norm) != 30 {
			t.Fatalf("ValidateNormalize = %d updates, %v; want 30, nil", len(norm), err)
		}
	}); allocs > validateRepeatAllocs {
		t.Fatalf("ValidateNormalize of a 32-update batch that repeats an edge: %.1f allocs, want at most %d", allocs, validateRepeatAllocs)
	}
}

// validateRepeatAllocs bounds TestValidateBatchErrorText's repeated-edge
// batch: three maps (validation's, then normalization's first and last ops)
// and the normal form took 10; one map and the normal form take 4.
const validateRepeatAllocs = 4

func TestReadRejectsDuplicates(t *testing.T) {
	if _, err := Read(strings.NewReader("n 1 a\nn 2 b\nn 1 c\n")); err == nil ||
		!strings.Contains(err.Error(), "line 3") {
		t.Fatalf("duplicate node: got %v, want line-numbered error", err)
	}
	if _, err := Read(strings.NewReader("n 1 a\nn 2 b\ne 1 2\ne 1 2\n")); err == nil ||
		!strings.Contains(err.Error(), "line 4") {
		t.Fatalf("duplicate edge: got %v, want line-numbered error", err)
	}
}

func TestMultiWordLabelRoundTrip(t *testing.T) {
	g := New()
	g.AddNode(1, "two words")
	g.AddNode(2, "three word label")
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Label(1) != "two words" || h.Label(2) != "three word label" {
		t.Fatalf("labels lost: %q %q", h.Label(1), h.Label(2))
	}
	// Labels the whitespace-splitting reader cannot reproduce must be
	// rejected at write time, not silently mangled on the round trip.
	for _, bad := range []string{"bad\nlabel", "tab\tlabel", "double  space", " leading", "trailing "} {
		h := New()
		h.AddNode(3, bad)
		if err := Write(&bytes.Buffer{}, h); err == nil {
			t.Fatalf("want error writing unrepresentable label %q", bad)
		}
	}
}
