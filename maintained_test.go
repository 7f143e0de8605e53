package incgraph_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"incgraph"
	"incgraph/internal/history/oracle"
)

func TestMaintainedUniformDriver(t *testing.T) {
	base := incgraph.NewGraph()
	for id, l := range map[incgraph.NodeID]string{1: "a", 2: "b", 3: "c", 4: "a"} {
		base.AddNode(id, l)
	}
	base.AddEdge(1, 2)
	base.AddEdge(2, 3)
	base.AddEdge(4, 2)

	kws, err := incgraph.NewKWS(base.Clone(), incgraph.KWSQuery{Keywords: []string{"b", "c"}, Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	rpq, err := incgraph.NewRPQ(base.Clone(), "a.b.c")
	if err != nil {
		t.Fatal(err)
	}
	pg := incgraph.NewGraph()
	pg.AddNode(0, "a")
	pg.AddNode(1, "b")
	pg.AddEdge(0, 1)
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}

	queries := []incgraph.Maintained{
		incgraph.MaintainKWS(kws),
		incgraph.MaintainRPQ(rpq),
		incgraph.MaintainSCC(incgraph.NewSCC(base.Clone())),
		incgraph.MaintainISO(incgraph.NewISO(base.Clone(), pat)),
	}
	classes := map[string]bool{}
	for _, q := range queries {
		classes[q.Class()] = true
		if q.Size() < 0 {
			t.Fatalf("%s: negative size", q.Class())
		}
		if q.Graph() == nil {
			t.Fatalf("%s: nil graph", q.Class())
		}
	}
	if len(classes) != 4 {
		t.Fatalf("classes = %v", classes)
	}

	batch := incgraph.Batch{incgraph.Del(2, 3), incgraph.Ins(1, 3)}
	for _, q := range queries {
		before := q.Size()
		d, err := q.Apply(batch)
		if err != nil {
			t.Fatalf("%s: %v", q.Class(), err)
		}
		expected := before + d.Added - d.Removed
		// Updated entries do not change cardinality.
		if q.Class() == "kws" || q.Class() == "rpq" || q.Class() == "iso" || q.Class() == "scc" {
			if q.Size() != expected {
				t.Fatalf("%s: size %d, summary says %d (%v)", q.Class(), q.Size(), expected, d)
			}
		}
	}

	// Errors propagate.
	if _, err := queries[0].Apply(incgraph.Batch{incgraph.Del(9, 9)}); err == nil {
		t.Fatalf("bad batch accepted")
	}
	if (incgraph.DeltaSummary{}).String() == "" || !(incgraph.DeltaSummary{}).Empty() {
		t.Fatalf("DeltaSummary basics broken")
	}
}

// TestRejectedBatchLeavesEngineUntouched pins, for all four classes, that a
// batch an engine rejects changes neither its graph nor its answer — no
// node created, no edge moved, no generation consumed — and that the
// engine goes on to apply a valid batch correctly. The batches fail after
// updates that would have created a node and deleted an edge. The
// "inplace" rows attach all four engines on a Durable's own graph, where
// an engine validates nothing itself: Commit rejects the batch before the
// WAL append, and graph, log, answers and every engine's LastDelta stay as
// they were.
func TestRejectedBatchLeavesEngineUntouched(t *testing.T) {
	// Triangle 1(a) → 2(b) → 3(c) → 1.
	base := incgraph.NewGraph()
	base.AddNode(1, "a")
	base.AddNode(2, "b")
	base.AddNode(3, "c")
	base.AddEdge(1, 2)
	base.AddEdge(2, 3)
	base.AddEdge(3, 1)
	pg := incgraph.NewGraph()
	pg.AddNode(0, "a")
	pg.AddNode(1, "b")
	pg.AddEdge(0, 1)
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	// Each builder also returns the engine's own audit of its state.
	build := map[string]func(g *incgraph.Graph) (incgraph.Maintained, func() error){
		"kws": func(g *incgraph.Graph) (incgraph.Maintained, func() error) {
			ix, err := incgraph.NewKWS(g, incgraph.KWSQuery{Keywords: []string{"b", "c"}, Bound: 2})
			if err != nil {
				t.Fatal(err)
			}
			return incgraph.MaintainKWS(ix), ix.Check
		},
		"rpq": func(g *incgraph.Graph) (incgraph.Maintained, func() error) {
			e, err := incgraph.NewRPQ(g, "a.b.c")
			if err != nil {
				t.Fatal(err)
			}
			return incgraph.MaintainRPQ(e), e.Check
		},
		"scc": func(g *incgraph.Graph) (incgraph.Maintained, func() error) {
			s := incgraph.NewSCC(g)
			return incgraph.MaintainSCC(s), s.CheckInvariants
		},
		"iso": func(g *incgraph.Graph) (incgraph.Maintained, func() error) {
			ix := incgraph.NewISO(g, pat)
			return incgraph.MaintainISO(ix), ix.Check
		},
	}
	bad := map[string]incgraph.Batch{
		"delete of a missing edge": {incgraph.InsNew(1, 99, "a", "b"), incgraph.Del(2, 3), incgraph.Del(7, 8)},
		"insert of a present edge": {incgraph.InsNew(1, 99, "a", "b"), incgraph.Del(2, 3), incgraph.Ins(3, 1)},
		"unknown op":               {incgraph.InsNew(1, 99, "a", "b"), incgraph.Del(2, 3), {Op: 7, From: 1, To: 3}},
		// Invalid update by update, though their normal forms are valid:
		// the first inserts (1,3) once, the second is a no-op.
		"a missing edge inserted twice":         {incgraph.InsNew(1, 99, "a", "b"), incgraph.Del(2, 3), incgraph.Ins(1, 3), incgraph.Ins(1, 3)},
		"a missing edge deleted, then inserted": {incgraph.InsNew(1, 99, "a", "b"), incgraph.Del(2, 3), incgraph.Del(1, 3), incgraph.Ins(1, 3)},
	}
	good := incgraph.Batch{incgraph.InsNew(1, 99, "a", "b"), incgraph.Del(2, 3)}
	answer := func(m incgraph.Maintained) string {
		var buf bytes.Buffer
		if err := m.WriteAnswer(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for name, batch := range bad {
		t.Run("inplace/"+name, func(t *testing.T) {
			d, err := incgraph.CreateDurable(t.TempDir(), base.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			g := d.Graph()
			audits := map[string]func() error{}
			for class, mk := range build {
				m, audit := mk(g)
				if err := d.Attach(m); err != nil {
					t.Fatal(err)
				}
				audits[class] = audit
			}
			// One good commit first, so that there is a ΔO to leave standing.
			if _, err := d.Commit(incgraph.Batch{incgraph.InsNew(3, 98, "c", "b")}, incgraph.ApplyOptions{}); err != nil {
				t.Fatal(err)
			}
			state := func() string {
				out := fmt.Sprintf("|V| %d |E| %d generation %d WAL %d bytes\n", g.NumNodes(), g.NumEdges(), g.Generation(), d.WALBytes())
				for _, m := range d.Engines() {
					out += m.Class() + " answer:\n" + answer(m) + "last ΔO:\n" + oracle.RenderLastDelta(m)
				}
				return out
			}
			was := state()
			if _, err := d.Commit(batch, incgraph.ApplyOptions{}); !errors.Is(err, incgraph.ErrBadUpdate) {
				t.Fatalf("Commit = %v, want ErrBadUpdate", err)
			}
			if got := state(); got != was {
				t.Fatalf("a rejected batch moved the store:\n%s\nwas:\n%s", got, was)
			}
			if _, err := d.Commit(good, incgraph.ApplyOptions{}); err != nil {
				t.Fatalf("valid batch after the rejected one: %v", err)
			}
			for _, m := range d.Engines() {
				if err := audits[m.Class()](); err != nil {
					t.Fatalf("%s after the valid batch: %v", m.Class(), err)
				}
				rebuilt, _ := build[m.Class()](g.Clone())
				if got, fresh := answer(m), answer(rebuilt); got != fresh {
					t.Fatalf("%s after the valid batch:\n%s\nfresh build:\n%s", m.Class(), got, fresh)
				}
			}
		})
	}
	for class, mk := range build {
		for name, batch := range bad {
			t.Run(class+"/"+name, func(t *testing.T) {
				m, audit := mk(base.Clone())
				g := m.Graph()
				ans, nodes, edges, gen := answer(m), g.NumNodes(), g.NumEdges(), g.Generation()
				if _, err := m.Apply(batch); !errors.Is(err, incgraph.ErrBadUpdate) {
					t.Fatalf("Apply = %v, want ErrBadUpdate", err)
				}
				if g.NumNodes() != nodes || g.NumEdges() != edges || g.Generation() != gen {
					t.Fatalf("graph moved: |V| %d→%d, |E| %d→%d, generation %d→%d",
						nodes, g.NumNodes(), edges, g.NumEdges(), gen, g.Generation())
				}
				if got := answer(m); got != ans {
					t.Fatalf("answer moved:\n%s\nwas:\n%s", got, ans)
				}
				if err := audit(); err != nil {
					t.Fatalf("state moved: %v", err)
				}
				// The engine is intact: the valid prefix applies, and
				// lands where a fresh build on the updated graph does.
				if _, err := m.Apply(good); err != nil {
					t.Fatalf("valid batch after the rejected one: %v", err)
				}
				want := base.Clone()
				if err := want.ApplyBatch(good); err != nil {
					t.Fatal(err)
				}
				rebuilt, _ := mk(want)
				if got, fresh := answer(m), answer(rebuilt); got != fresh {
					t.Fatalf("after the valid batch:\n%s\nfresh build:\n%s", got, fresh)
				}
				if err := audit(); err != nil {
					t.Fatalf("after the valid batch: %v", err)
				}
			})
		}
	}
}
