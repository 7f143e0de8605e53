package incgraph_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
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

// rowEngine is one class's engine as the row tests drive it: the adapter,
// the engine's own audit of its state, its work meter (nil for iso), and —
// for kws and iso, which have a rebuild-and-diff path — the cost model's
// last verdict.
type rowEngine struct {
	m        incgraph.Maintained
	audit    func() error
	meter    *cost.Meter
	estimate func() cost.Estimate
}

// rebuilt reports whether the engine's last repair took rebuild-and-diff.
func (e rowEngine) rebuilt() bool { return e.estimate != nil && e.estimate().PreferBatch() }

// rowEngines returns, per class, a builder of that class's engine on a
// graph derived from seed, with the queries the row tests fix.
func rowEngines(t *testing.T, seed *incgraph.Graph) (map[string]func(g *incgraph.Graph) rowEngine, incgraph.KWSQuery) {
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
	return map[string]func(g *incgraph.Graph) rowEngine{
		"kws": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			ix, err := kws.Build(g, kwsQ, meter)
			if err != nil {
				t.Fatal(err)
			}
			return rowEngine{incgraph.MaintainKWS(ix), ix.Check, meter, ix.LastEstimate}
		},
		"rpq": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			e, err := rpq.Parse(g, "l0.l1*.l0", meter)
			if err != nil {
				t.Fatal(err)
			}
			return rowEngine{incgraph.MaintainRPQ(e), e.Check, meter, nil}
		},
		"scc": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			st := scc.Build(g, meter)
			return rowEngine{incgraph.MaintainSCC(st), st.CheckInvariants, meter, nil}
		},
		"iso": func(g *incgraph.Graph) rowEngine {
			// Unmetered: iso's is the one meter that is not exact from run
			// to run (VF2 walks promoted adjacency sets in map order).
			ix := iso.Build(g, pat, nil)
			return rowEngine{incgraph.MaintainISO(ix), ix.Check, nil, ix.LastEstimate}
		},
	}, kwsQ
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
//
// The same history then runs through Durables ("inplace"): engines that
// repair in place on the store's one graph must be indistinguishable from
// engines that each advance a clone of it.
func TestRowDeltaFoldsToAnswer(t *testing.T) {
	seed := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1200, Labels: 2, GiantSCCFrac: 0.5, Seed: 41,
	})
	build, kwsQ := rowEngines(t, seed)
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
			e := mk(g)
			m := e.m
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
				if e.rebuilt() {
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
	t.Run("inplace", func(t *testing.T) { inPlaceMatchesClones(t, seed, build, kwsQ, sizes, rounds) })
}

// rowStore is a Durable with row engines attached, by class.
type rowStore struct {
	name    string
	d       *incgraph.Durable
	engines map[string]rowEngine
}

// observe renders everything a commit leaves behind in one engine that a
// caller can see: ΔO row by row, the answer, the work metered since build,
// the cost model's verdict.
func (e rowEngine) observe(t *testing.T) string {
	t.Helper()
	out := renderLastDelta(e.m)
	var ans bytes.Buffer
	if err := e.m.WriteAnswer(&ans); err != nil {
		t.Fatal(err)
	}
	est := "none"
	if e.estimate != nil {
		est = e.estimate().String()
	}
	return "ΔO:\n" + out + "answer:\n" + ans.String() + "meter: " + e.meter.String() + "\nestimate: " + est + "\n"
}

// renderLastDelta renders the ΔO an adapter holds row by row, one line
// each: "-" and the row for one that left Q(G), "+" for one that entered.
func renderLastDelta(m incgraph.Maintained) string {
	ra := m.(incgraph.RowAnswer)
	var out []byte
	ra.LastDelta().Each(func(row []incgraph.NodeID, gone bool) {
		sign := byte('+')
		if gone {
			sign = '-'
		}
		out = ra.AppendRow(append(out, sign), row)
	})
	return string(out)
}

// firstDiff returns the first line at which two observations part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// inPlaceMatchesClones runs TestRowDeltaFoldsToAnswer's history through
// three stores — every engine on its own clone (the reference), every
// engine in place on the store's graph, and a mix (kws in place beside scc
// on a clone) — and requires them to be indistinguishable after every
// commit: summaries, ΔO rows, answer bytes, metered work and cost-model
// verdicts equal, each engine's own audit green (scc's checks its mirror
// against the shared graph), rejected batches leaving all of it and the WAL
// untouched. The kws estimate is also pinned to the pre-state counts of the
// simulated history, which no store computes.
func inPlaceMatchesClones(t *testing.T, seed *incgraph.Graph, build map[string]func(*incgraph.Graph) rowEngine, kwsQ incgraph.KWSQuery, sizes []int, rounds int) {
	open := func(name string, classes []string, inPlace func(class string) bool) rowStore {
		g := seed.Clone()
		g.SetShards(2)
		d, err := incgraph.CreateDurable(t.TempDir(), g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		st := rowStore{name, d, make(map[string]rowEngine)}
		for _, class := range classes {
			on := g
			if !inPlace(class) {
				on = g.Clone()
			}
			e := build[class](on)
			if err := d.Attach(e.m); err != nil {
				t.Fatal(err)
			}
			if shares := e.m.Graph() == d.Graph(); shares != inPlace(class) {
				t.Fatalf("%s: %s shares the store's graph: %v", name, class, shares)
			}
			st.engines[class] = e
		}
		return st
	}
	all := []string{"kws", "rpq", "scc", "iso"}
	ref := open("clones", all, func(string) bool { return false })
	others := []rowStore{
		open("in place", all, func(string) bool { return true }),
		open("mixed", []string{"kws", "scc"}, func(class string) bool { return class == "kws" }),
	}
	stores := append([]rowStore{ref}, others...)
	h := newRowHistory(seed, 200)
	rebuilds := map[string]int{}
	for step := 0; step < rounds*len(sizes); step++ {
		if step == rounds*len(sizes)/2 {
			for _, st := range stores {
				st.d.Graph().SetShards(8)
				for _, e := range st.engines {
					e.m.Graph().SetShards(8)
				}
			}
		}
		if step%3 == 0 {
			bad := h.badBatch()
			for _, st := range stores {
				before := map[string]string{}
				for class, e := range st.engines {
					before[class] = e.observe(t)
				}
				nodes, edges, gen, wal := st.d.Graph().NumNodes(), st.d.Graph().NumEdges(), st.d.Generation(), st.d.WALBytes()
				if _, err := st.d.Commit(bad, incgraph.ApplyOptions{}); !errors.Is(err, incgraph.ErrBadUpdate) {
					t.Fatalf("step %d, %s: bad batch: %v", step, st.name, err)
				}
				if g := st.d.Graph(); g.NumNodes() != nodes || g.NumEdges() != edges || st.d.Generation() != gen || st.d.WALBytes() != wal {
					t.Fatalf("step %d, %s: a rejected batch moved the graph or the WAL", step, st.name)
				}
				for class, e := range st.engines {
					if got := e.observe(t); got != before[class] {
						t.Fatalf("step %d, %s: a rejected batch moved %s: %s", step, st.name, class, firstDiff(got, before[class]))
					}
				}
			}
		}
		preV, preE := h.sim.NumNodes(), h.sim.NumEdges()
		b := h.batch(sizes[step%len(sizes)])
		sums := map[string][]incgraph.DeltaSummary{}
		for _, st := range stores {
			var err error
			if sums[st.name], err = st.d.Commit(b, incgraph.ApplyOptions{}); err != nil {
				t.Fatalf("step %d, %s: %v", step, st.name, err)
			}
			if !st.d.Graph().Equal(h.sim) {
				t.Fatalf("step %d, %s: the store's graph diverged from the simulated history", step, st.name)
			}
			for class, e := range st.engines {
				if err := e.audit(); err != nil {
					t.Fatalf("step %d, %s: %s audit: %v", step, st.name, class, err)
				}
			}
			if est := st.engines["kws"].estimate(); est.BatchCost != len(kwsQ.Keywords)*(preV+preE) {
				t.Fatalf("step %d, %s: kws estimated a batch build at %d, want %d keywords × (|V| %d + |E| %d) of the pre-state",
					step, st.name, est.BatchCost, len(kwsQ.Keywords), preV, preE)
			}
		}
		for class, e := range ref.engines {
			if e.rebuilt() {
				rebuilds[class]++
			}
		}
		for _, st := range others {
			for i, m := range st.d.Engines() {
				class := m.Class()
				j := slices.IndexFunc(ref.d.Engines(), func(r incgraph.Maintained) bool { return r.Class() == class })
				if got, want := sums[st.name][i], sums[ref.name][j]; got != want {
					t.Fatalf("step %d, %s: %s summary %v, on clones %v", step, st.name, class, got, want)
				}
				if got, want := st.engines[class].observe(t), ref.engines[class].observe(t); got != want {
					t.Fatalf("step %d, %s: %s differs from the engine on a clone: %s", step, st.name, class, firstDiff(got, want))
				}
			}
		}
	}
	if rebuilds["kws"] == 0 || rebuilds["iso"] == 0 {
		t.Fatalf("rebuild-and-diff was taken %d times by kws, %d by iso: the history must reach it in both", rebuilds["kws"], rebuilds["iso"])
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
