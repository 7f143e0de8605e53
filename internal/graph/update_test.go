package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestApplyInsertWithNewNodes(t *testing.T) {
	g := New()
	if err := g.Apply(InsNew(1, 2, "a", "b")); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 2) || g.Label(1) != "a" || g.Label(2) != "b" {
		t.Fatalf("insert-with-new-nodes failed: %v", g)
	}
	// Existing nodes must keep their labels.
	if err := g.Apply(InsNew(2, 1, "X", "Y")); err != nil {
		t.Fatal(err)
	}
	if g.Label(1) != "a" || g.Label(2) != "b" {
		t.Fatalf("insert relabeled existing nodes")
	}
}

func TestApplyErrors(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	g.AddEdge(1, 2)
	if err := g.Apply(Ins(1, 2)); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("duplicate insert: got %v", err)
	}
	if err := g.Apply(Del(2, 1)); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("missing delete: got %v", err)
	}
	if err := g.Apply(Update{Op: Op(9)}); !errors.Is(err, ErrBadUpdate) {
		t.Fatalf("unknown op: got %v", err)
	}
}

func TestApplyBatchStopsAtFirstError(t *testing.T) {
	g := New()
	g.AddNode(1, "a")
	g.AddNode(2, "b")
	batch := Batch{Ins(1, 2), Del(9, 9), Ins(2, 1)}
	if err := g.ApplyBatch(batch); err == nil {
		t.Fatalf("expected error")
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatalf("batch application order wrong")
	}
}

func TestSplit(t *testing.T) {
	b := Batch{Ins(1, 2), Del(3, 4), Ins(5, 6)}
	ins, del := b.Split()
	if len(ins) != 2 || len(del) != 1 || ins[1].From != 5 || del[0].To != 4 {
		t.Fatalf("Split wrong: ins=%v del=%v", ins, del)
	}
}

func TestNormalize(t *testing.T) {
	// Insert-then-delete of a fresh edge cancels; delete-then-insert of an
	// existing edge cancels; odd-length alternations keep the final op.
	b := Batch{Ins(1, 2), Del(1, 2), Del(3, 4), Ins(3, 4), Ins(5, 6), Del(7, 8), Ins(7, 8), Del(7, 8)}
	n := b.Normalize()
	if len(n) != 2 {
		t.Fatalf("Normalize len = %d (%v)", len(n), n)
	}
	if n[0] != Ins(5, 6) || n[1] != Del(7, 8) {
		t.Fatalf("Normalize kept wrong updates: %v", n)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	// Property: applying a valid batch then its inverse restores all edges
	// (new nodes are retained by design, so compare edges and labels of the
	// original node set).
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, 30, []string{"a", "b", "c"})
		orig := g.Clone()
		var batch Batch
		// Construct a valid batch against the evolving graph.
		for step := 0; step < 25; step++ {
			v, w := NodeID(rng.Intn(15)), NodeID(rng.Intn(15))
			if g.HasEdge(v, w) {
				u := Del(v, w)
				g.Apply(u)
				batch = append(batch, u)
			} else {
				u := Ins(v, w)
				g.Apply(u)
				batch = append(batch, u)
			}
		}
		if err := g.ApplyBatch(batch.Inverse()); err != nil {
			return false
		}
		return g.Equal(orig)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateStrings(t *testing.T) {
	if Ins(1, 2).String() != "insert(1,2)" {
		t.Fatalf("insert string: %s", Ins(1, 2))
	}
	if Del(1, 2).String() != "delete(1,2)" {
		t.Fatalf("delete string: %s", Del(1, 2))
	}
	if Op(9).String() == "" {
		t.Fatalf("unknown op must render")
	}
}

// FuzzParseUpdate: ParseUpdate never panics, and a line it accepts,
// written again by AppendUpdate, parses to the same Update.
func FuzzParseUpdate(f *testing.F) {
	for _, line := range []string{
		"+ 1 2", "+ -5 7 a", "+ 1 1099511627776 a b", "- 3 -4", " +\t01  +2 a ",
		"+ 1 2 a b junk", "- 1 2 x", "* 1 2", "+ 1", "- 1 0x2", "",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		u, err := ParseUpdate(strings.Fields(line))
		if err != nil {
			return
		}
		canon := string(AppendUpdate(nil, u))
		again, err := ParseUpdate(strings.Fields(canon))
		if err != nil || again != u {
			t.Fatalf("%q parsed to %+v; AppendUpdate's %q to %+v (%v)", line, u, canon, again, err)
		}
	})
}
