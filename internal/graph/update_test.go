package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
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

// fieldsRule is the update-line rule ParseUpdate has always stated, kept
// here as the oracle its byte parser answers to: strings.Fields, then the
// field checks.
func fieldsRule(fields []string) (Update, error) {
	most := 3
	if len(fields) > 0 && fields[0] == "+" {
		most = 5
	}
	if len(fields) < 3 || len(fields) > most || fields[0] != "+" && fields[0] != "-" {
		return Update{}, errors.New("want '+ v w [vlabel [wlabel]]' or '- v w'")
	}
	v, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("bad source id: %v", err)
	}
	w, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("bad target id: %v", err)
	}
	if fields[0] == "-" {
		return Del(NodeID(v), NodeID(w)), nil
	}
	var labels [2]string
	copy(labels[:], fields[3:])
	return InsNew(NodeID(v), NodeID(w), labels[0], labels[1]), nil
}

// FuzzParseUpdate: on any bytes ParseUpdate gives the oracle's verdict —
// the same Update, or the same error text — and a line it accepts, written
// again by AppendUpdate, parses to the same Update.
func FuzzParseUpdate(f *testing.F) {
	for _, line := range []string{
		"+ 1 2", "+ -5 7 a", "+ 1 1099511627776 a b", "- 3 -4", " +\t01  +2 a ",
		"+ 1 2 a b junk", "- 1 2 x", "* 1 2", "+ 1", "- 1 0x2", "",
		"+\t1\t2\ta\tb", "+\u00a01 2", "- 1\u00852", "+1 2", "-1 2", "+ +1 -2 x",
		"+ 1 2 \u00a0a\u0085 b\u3000", "+ 9223372036854775808 1", "- 1 2\xff", "+ 1 2 \xffa",
		"+ 1 2 a b\u2028", "\v- 1 2\f", "+ 1_000 2", "+ 1 2 a b c d e f",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		u, err := ParseUpdate([]byte(line))
		want, wantErr := fieldsRule(strings.Fields(line))
		if u != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q parsed to %+v, %v; strings.Fields and the field checks give %+v, %v", line, u, err, want, wantErr)
		}
		if err != nil {
			return
		}
		canon := AppendUpdate(nil, u)
		again, err := ParseUpdate(canon)
		if err != nil || again != u {
			t.Fatalf("%q parsed to %+v; AppendUpdate's %q to %+v (%v)", line, u, canon, again, err)
		}
	})
}

// An update line without labels parses without allocating, whatever white
// space separates its fields; a label costs its string.
func TestParseUpdateAllocs(t *testing.T) {
	for _, c := range []struct {
		line   string
		allocs float64
	}{
		{"+ 1 2", 0}, {"- -3 40000000000", 0}, {"\t+\u00a01\u3000 2 ", 0}, {"+ 1 2 ab", 1}, {"+ 1 2 ab cd", 2},
	} {
		line := []byte(c.line)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := ParseUpdate(line); err != nil {
				t.Fatal(err)
			}
		}); got != c.allocs {
			t.Errorf("ParseUpdate(%q): %.0f allocs, want %.0f", c.line, got, c.allocs)
		}
	}
}

// FuzzNormalize: on a small random graph, ValidateNormalize accepts a batch
// exactly when applying it update by update succeeds, leaves the graph
// untouched, and hands over a normal form that — applied after the nodes
// the batch's insertions name are created — gives the same nodes, labels
// and edges as the update-by-update application. Each update takes two
// bytes: the low three bits of each name its endpoints (nodes 6 and 7 are
// not in the graph), and its op is the one the running graph admits unless
// the first byte's high nibble is all ones.
func FuzzNormalize(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 0, 1, 2, 3})
	f.Add(int64(2), []byte{6, 7, 6, 7, 6, 7, 0xf6, 7})
	f.Add(int64(3), []byte{1, 1, 2, 2, 1, 1, 0xf3, 4, 5, 6, 7, 0, 5, 6, 1, 1, 0, 2, 0, 2, 0, 2, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		g := randomGraph(rand.New(rand.NewSource(seed)), 6, 12, []string{"a", "b"})
		unit := g.Clone()
		var b Batch
		for ; len(data) >= 2 && len(b) < 100; data = data[2:] {
			v, w := NodeID(data[0]&7), NodeID(data[1]&7)
			u := InsNew(v, w, "x", "y")
			if unit.HasEdge(v, w) != (data[0]&0xf0 == 0xf0) {
				u = Del(v, w)
			}
			b = append(b, u)
			unit.Apply(u) // a rejected update leaves unit as it was
		}
		unit = g.Clone()
		uerr := unit.ApplyBatch(b)
		gen := g.Generation()
		norm, err := g.ValidateNormalize(b)
		if g.Generation() != gen {
			t.Fatal("ValidateNormalize mutated the graph")
		}
		if (err == nil) != (uerr == nil) || err != nil && err.Error() != uerr.Error() {
			t.Fatalf("batch %v: ValidateNormalize says %v, applying it update by update %v", b, err, uerr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(norm, b.Normalize()) {
			t.Fatalf("batch %v: ValidateNormalize's normal form %v, Normalize's %v", b, norm, b.Normalize())
		}
		for _, u := range b {
			if u.Op == Insert {
				g.EnsureNode(u.From, u.FromLabel)
				g.EnsureNode(u.To, u.ToLabel)
			}
		}
		if err := g.ApplyBatch(norm); err != nil {
			t.Fatalf("batch %v: its normal form %v does not apply: %v", b, norm, err)
		}
		if !g.Equal(unit) {
			t.Fatalf("batch %v: its normal form %v gives another graph than the batch", b, norm)
		}
	})
}
