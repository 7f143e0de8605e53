package incgraph_test

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"incgraph"
)

// rowHistory generates batches that are valid against sim in order and
// applies them to sim: deletions, insertions between existing nodes,
// insertions that hang a new node off an existing one — IDs below the
// range (negative), just above it and from 2⁴⁰ up, labeled from the graph's
// alphabet — and pairs that cancel within the batch: an edge inserted and
// deleted again (its new node stays), an edge deleted and put back.
type rowHistory struct {
	rng          *rand.Rand
	sim          *incgraph.Graph
	nodes        []incgraph.NodeID
	labels       []string
	lo, hi, huge incgraph.NodeID
	fresh        int
}

func newRowHistory(g *incgraph.Graph, seed int64) *rowHistory {
	sim := g.Clone()
	nodes := sim.NodesSorted()
	h := &rowHistory{
		rng: rand.New(rand.NewSource(seed)), sim: sim, nodes: nodes,
		lo: min(nodes[0], 0) - 1, hi: nodes[len(nodes)-1] + 1, huge: 1 << 40,
	}
	sim.Labels(func(l string, _ int) bool {
		h.labels = append(h.labels, l)
		return true
	})
	slices.Sort(h.labels)
	return h
}

func (h *rowHistory) freshNode() (incgraph.NodeID, string) {
	var id incgraph.NodeID
	switch h.fresh % 3 {
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
	h.fresh++
	h.nodes = append(h.nodes, id)
	return id, h.labels[h.rng.Intn(len(h.labels))]
}

func (h *rowHistory) batch(k int) incgraph.Batch {
	var b incgraph.Batch
	for len(b) < k {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		var us []incgraph.Update
		switch h.rng.Intn(12) {
		case 0, 1, 2, 3:
			succ := h.sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			us = append(us, incgraph.Del(v, succ[h.rng.Intn(len(succ))]))
		case 4:
			id, l := h.freshNode()
			if h.rng.Intn(2) == 0 {
				us = append(us, incgraph.InsNew(v, id, "", l))
			} else {
				us = append(us, incgraph.InsNew(id, v, l, ""))
			}
		case 5:
			if succ := h.sim.SuccessorsSorted(v); len(succ) > 0 && h.rng.Intn(2) == 0 {
				w := succ[h.rng.Intn(len(succ))]
				us = append(us, incgraph.Del(v, w), incgraph.Ins(v, w))
			} else {
				id, l := h.freshNode()
				us = append(us, incgraph.InsNew(v, id, "", l), incgraph.Del(v, id))
			}
		default:
			w := h.nodes[h.rng.Intn(len(h.nodes))]
			if h.sim.HasEdge(v, w) {
				continue
			}
			us = append(us, incgraph.Ins(v, w))
		}
		for _, u := range us {
			if err := h.sim.Apply(u); err != nil {
				panic(err)
			}
		}
		b = append(b, us...)
	}
	return b
}

// badBatch fails on its last update, after a prefix that would have created
// a node and deleted an edge.
func (h *rowHistory) badBatch() incgraph.Batch {
	for {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		if succ := h.sim.SuccessorsSorted(v); len(succ) > 0 {
			return incgraph.Batch{
				incgraph.InsNew(v, h.huge+1, "", h.labels[0]),
				incgraph.Del(v, succ[0]),
				incgraph.Del(h.huge+1, h.huge+2),
			}
		}
	}
}

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
	seed := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1200, Labels: 2, GiantSCCFrac: 0.5, Seed: 41,
	})
	kwsQ, err := incgraph.RandomKWSQuery(seed, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	pg := incgraph.NewGraph()
	pg.AddNode(0, "l0")
	pg.AddNode(1, "l0")
	pg.AddNode(2, "l0")
	pg.AddEdge(0, 1)
	pg.AddEdge(0, 2)
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	// Each builder also says whether the engine's last Apply took its
	// rebuild-and-diff path (kws and iso have one).
	never := func() bool { return false }
	build := map[string]func(g *incgraph.Graph) (incgraph.Maintained, func() bool){
		"kws": func(g *incgraph.Graph) (incgraph.Maintained, func() bool) {
			ix, err := incgraph.NewKWS(g, kwsQ)
			if err != nil {
				t.Fatal(err)
			}
			return incgraph.MaintainKWS(ix), func() bool { return ix.LastEstimate().PreferBatch() }
		},
		"rpq": func(g *incgraph.Graph) (incgraph.Maintained, func() bool) {
			e, err := incgraph.NewRPQ(g, "l0.l1*.l0")
			if err != nil {
				t.Fatal(err)
			}
			return incgraph.MaintainRPQ(e), never
		},
		"scc": func(g *incgraph.Graph) (incgraph.Maintained, func() bool) {
			return incgraph.MaintainSCC(incgraph.NewSCC(g)), never
		},
		"iso": func(g *incgraph.Graph) (incgraph.Maintained, func() bool) {
			ix := incgraph.NewISO(g, pat)
			return incgraph.MaintainISO(ix), func() bool { return ix.LastEstimate().PreferBatch() }
		},
	}
	sizes := []int{1, 4, 32, 1536, 32, 4, 1, 32}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for class, mk := range build {
		t.Run(class, func(t *testing.T) {
			g := seed.Clone()
			g.SetShards(2)
			h := newRowHistory(g, 200)
			m, rebuilt := mk(g)
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
					if _, err := m.Apply(h.badBatch()); !errors.Is(err, incgraph.ErrBadUpdate) {
						t.Fatalf("step %d: bad batch: %v", step, err)
					}
					check(step)
				}
				b := h.batch(sizes[step%len(sizes)])
				if _, err := m.Apply(b); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if rebuilt() {
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
			if !g.Equal(h.sim) {
				t.Fatal("engine graph diverged from the simulated history")
			}
			for _, p := range pub {
				if !slices.Equal(p.row, p.copy) {
					t.Fatalf("a published member slice changed: %v, was %v", p.row, p.copy)
				}
			}
		})
	}
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
