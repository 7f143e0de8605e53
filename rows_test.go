package incgraph_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"incgraph"
	"incgraph/internal/history"
)

// TestRowDeltaFoldsToAnswer makes ΔO load-bearing for every class at once:
// over a seeded history — batches of 1 to 1536 (the large ones take kws' and iso's rebuild-and-diff
// path), nodes created on both sides
// of the ID range, cancelled pairs, a rejected batch before every third
// step, SetShards 2→8 half way — the rows cut once at the start, folded
// with the row delta of every Apply since, must render to WriteAnswer's
// bytes and count to Size() after every batch. The chain is folded into a
// new base every seventh step, so both MergeRows over a long chain and
// FoldRows are on the path. For scc every member slice ever published is
// kept beside a deep copy and compared at the end.
func TestRowDeltaFoldsToAnswer(t *testing.T) {
	seed := history.Graph()
	build, _ := history.Engines(seed)
	sizes := []int{1, 4, 32, 1536, 32, 4, 1, 32}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for class, mk := range build {
		t.Run(class, func(t *testing.T) {
			g := seed.Clone()
			g.SetShards(2)
			h := history.New(g, 200)
			e := mk(g)
			m := e.M
			ra := m.(incgraph.RowAnswer)
			if n := ra.LastDelta().Len(); n != 0 {
				t.Fatalf("LastDelta before any Apply has %d rows", n)
			}
			base := ra.Rows()
			if base.Len() == 0 {
				t.Fatal("empty answer at the start: the history would pin nothing")
			}
			var chain []incgraph.RowDelta
			type published struct{ row, copy []incgraph.NodeID }
			var pub []published
			keep := func(row []incgraph.NodeID) {
				if class == "scc" {
					pub = append(pub, published{row, slices.Clone(row)})
				}
			}
			for i := 0; i < base.Len(); i++ {
				keep(base.At(i))
			}
			check := func(step int) {
				t.Helper()
				var got []byte
				n := 0
				incgraph.MergeRows(ra, base, chain, func(row []incgraph.NodeID) {
					got = ra.AppendRow(got, row)
					n++
				})
				var want bytes.Buffer
				if err := m.WriteAnswer(&want); err != nil {
					t.Fatal(err)
				}
				if n != m.Size() {
					t.Fatalf("step %d: %d rows, Size() = %d", step, n, m.Size())
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("step %d: rows ⊕ ΔO render\n%s\nWriteAnswer:\n%s", step, got, want.Bytes())
				}
			}
			check(-1)
			changed, rebuilds := 0, 0
			for step := 0; step < rounds*len(sizes); step++ {
				if step == rounds*len(sizes)/2 {
					g.SetShards(8)
				}
				if step%3 == 0 {
					// ΔO of the last successful Apply stands.
					if _, err := m.Apply(h.BadBatch()); !errors.Is(err, incgraph.ErrBadUpdate) {
						t.Fatalf("step %d: bad batch: %v", step, err)
					}
					check(step)
				}
				b := h.Batch(sizes[step%len(sizes)])
				if _, err := m.Apply(b); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if e.Rebuilt() {
					rebuilds++
				}
				d := ra.LastDelta()
				d.Each(func(row []incgraph.NodeID, gone bool) { keep(row) })
				if d.Len() > 0 {
					changed++
				}
				chain = append(chain, d)
				check(step)
				if step%7 == 6 {
					base, chain = incgraph.FoldRows(ra, base, chain, m.Size()), nil
					check(step)
				}
			}
			if changed < 3 {
				t.Fatalf("only %d batches moved the answer", changed)
			}
			if (class == "kws" || class == "iso") && rebuilds == 0 {
				t.Fatal("no batch took the rebuild-and-diff path")
			}
			if !g.Equal(h.Sim) {
				t.Fatal("engine graph diverged from the simulated history")
			}
			for _, p := range pub {
				if !slices.Equal(p.row, p.copy) {
					t.Fatalf("a published member slice changed: %v, was %v", p.row, p.copy)
				}
			}
		})
	}
	// The same history through stores that attach the engines in place,
	// or kws in place beside scc on a clone, against engines on clones.
	t.Run("inplace", func(t *testing.T) {
		runHistory(t, 200, focusSizes, nil, pick("clones", "inplace", "mixed")...)
	})
}

// TestRowOrderIsAnswerOrder pins CompareRows to the order WriteAnswer
// prints, on IDs whose decimal texts and values order differently.
func TestRowOrderIsAnswerOrder(t *testing.T) {
	ids := []incgraph.NodeID{-1234567, -30, -3, 7, 10, 42, 100, 1 << 40}
	g := incgraph.NewGraph()
	for _, v := range ids {
		g.AddNode(v, "a")
	}
	for _, v := range ids {
		for _, w := range ids {
			if v != w {
				g.AddEdge(v, w)
			}
		}
	}
	pg := incgraph.NewGraph()
	pg.AddNode(0, "a")
	pg.AddNode(1, "a")
	pg.AddEdge(0, 1)
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	m := incgraph.MaintainISO(incgraph.NewISO(g, pat))
	ra := m.(incgraph.RowAnswer)
	rows := ra.Rows()
	if rows.Len() != len(ids)*(len(ids)-1) {
		t.Fatalf("%d embeddings, want %d", rows.Len(), len(ids)*(len(ids)-1))
	}
	for i := 1; i < rows.Len(); i++ {
		if ra.CompareRows(rows.At(i-1), rows.At(i)) >= 0 {
			t.Fatalf("rows %v, %v are in answer order but CompareRows says %d",
				rows.At(i-1), rows.At(i), ra.CompareRows(rows.At(i-1), rows.At(i)))
		}
	}
	var got []byte
	incgraph.MergeRows(ra, rows, nil, func(row []incgraph.NodeID) { got = ra.AppendRow(got, row) })
	var want bytes.Buffer
	if err := m.WriteAnswer(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("rows render\n%s\nWriteAnswer:\n%s", got, want.Bytes())
	}
}
