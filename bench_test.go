package incgraph_test

// One testing.B benchmark per figure/table of the paper's evaluation
// (Section 6), on scaled-down dataset simulations. Sub-benchmarks compare
// the incremental algorithm (IncX), its unit-at-a-time variant (IncXn) and
// the batch baseline (BLINKS / RPQ_NFA / Tarjan / VF2) at the figure's
// representative operating point (|ΔG| = 10% of |G| unless the panel varies
// something else). `go test -bench=. -benchmem` regenerates the whole set;
// cmd/benchmark runs the full sweeps with all baselines.
//
// Incremental benchmarks use the apply/undo pattern: each iteration applies
// ΔG and then its inverse, so the maintained state returns to the start
// without untimed per-iteration rebuilds. One op therefore measures two
// batch applications; the batch baselines recompute from a fixed updated
// graph, so one op is one recomputation. Relative comparisons are
// unaffected (halve the incremental numbers for absolute per-batch times).

import (
	"fmt"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// benchScale keeps `go test -bench=.` affordable; cmd/benchmark -scale
// controls the full harness independently.
const benchScale = 0.1

func dataset(b *testing.B, name string, classScale float64) *incgraph.Graph {
	b.Helper()
	g, err := incgraph.Dataset(name, classScale*benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func deltaBatch(g *incgraph.Graph, pct int, seed int64) incgraph.Batch {
	count := pct * g.NumEdges() / 100
	if count < 1 {
		count = 1
	}
	return incgraph.RandomUpdates(g, incgraph.UpdateSpec{
		Count:       count,
		InsertRatio: 0.5,
		Locality:    1.0,
		Seed:        seed,
	})
}

// applyUndo is the incremental benchmark kernel.
type applier func(incgraph.Batch) error

func applyUndo(b *testing.B, fwd, rev incgraph.Batch, apply applier) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apply(fwd); err != nil {
			b.Fatal(err)
		}
		if err := apply(rev); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- KWS panels: Fig. 8(a) dbpedia, 8(e) livej, 8(j) vary Q, 8(m) vary G.

func benchKWS(b *testing.B, ds string, m, bound, pct int) {
	g := dataset(b, ds, 1.0)
	q, err := incgraph.RandomKWSQuery(g, m, bound, 2)
	if err != nil {
		b.Fatal(err)
	}
	batch := deltaBatch(g, pct, 3)
	undo := batch.Inverse()
	b.Run("IncKWS", func(b *testing.B) {
		ix, err := incgraph.NewKWS(g.Clone(), q)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := ix.Apply(bb); return err })
	})
	b.Run("IncKWSn", func(b *testing.B) {
		ix, err := incgraph.NewKWS(g.Clone(), q)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := ix.ApplyUnitwise(bb); return err })
	})
	b.Run("BLINKS", func(b *testing.B) {
		h := g.Clone()
		if err := h.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := incgraph.NewKWS(h.Clone(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig08a_KWS_dbpedia(b *testing.B) { benchKWS(b, "dbpedia", 3, 2, 10) }
func BenchmarkFig08e_KWS_livej(b *testing.B)   { benchKWS(b, "livej", 3, 2, 10) }
func BenchmarkFig08j_KWS_varyQ(b *testing.B) {
	for _, mb := range [][2]int{{2, 1}, {4, 3}, {6, 5}} {
		b.Run(fmt.Sprintf("m%d_b%d", mb[0], mb[1]), func(b *testing.B) {
			benchKWS(b, "dbpedia", mb[0], mb[1], 10)
		})
	}
}
func BenchmarkFig08m_KWS_varyG(b *testing.B) {
	for _, sc := range []float64{0.2, 0.6, 1.0} {
		b.Run(fmt.Sprintf("scale%.1f", sc), func(b *testing.B) {
			g, err := incgraph.Dataset("synthetic", sc*benchScale, 1)
			if err != nil {
				b.Fatal(err)
			}
			q, err := incgraph.RandomKWSQuery(g, 3, 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			batch := deltaBatch(g, 15, 3)
			ix, err := incgraph.NewKWS(g, q)
			if err != nil {
				b.Fatal(err)
			}
			applyUndo(b, batch, batch.Inverse(), func(bb incgraph.Batch) error { _, err := ix.Apply(bb); return err })
		})
	}
}

// ---- RPQ panels: Fig. 8(b) dbpedia, 8(f) livej, 8(k) vary Q, 8(n) vary G.

func benchRPQ(b *testing.B, ds string, size, pct int) {
	g := dataset(b, ds, 0.5)
	ast, err := incgraph.RandomRPQQuery(g, size, 2)
	if err != nil {
		b.Fatal(err)
	}
	batch := deltaBatch(g, pct, 3)
	undo := batch.Inverse()
	b.Run("IncRPQ", func(b *testing.B) {
		e, err := incgraph.NewRPQFromAst(g.Clone(), ast)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := e.Apply(bb); return err })
	})
	b.Run("IncRPQn", func(b *testing.B) {
		e, err := incgraph.NewRPQFromAst(g.Clone(), ast)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := e.ApplyUnitwise(bb); return err })
	})
	b.Run("RPQNFA", func(b *testing.B) {
		h := g.Clone()
		if err := h.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := incgraph.NewRPQFromAst(h.Clone(), ast); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig08b_RPQ_dbpedia(b *testing.B) { benchRPQ(b, "dbpedia", 4, 10) }
func BenchmarkFig08f_RPQ_livej(b *testing.B)   { benchRPQ(b, "livej", 4, 10) }
func BenchmarkFig08k_RPQ_varyQ(b *testing.B) {
	for _, size := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			benchRPQ(b, "dbpedia", size, 10)
		})
	}
}
func BenchmarkFig08n_RPQ_varyG(b *testing.B) {
	for _, sc := range []float64{0.2, 0.6, 1.0} {
		b.Run(fmt.Sprintf("scale%.1f", sc), func(b *testing.B) {
			g, err := incgraph.Dataset("synthetic", 0.5*sc*benchScale, 1)
			if err != nil {
				b.Fatal(err)
			}
			ast, err := incgraph.RandomRPQQuery(g, 4, 2)
			if err != nil {
				b.Fatal(err)
			}
			batch := deltaBatch(g, 15, 3)
			e, err := incgraph.NewRPQFromAst(g, ast)
			if err != nil {
				b.Fatal(err)
			}
			applyUndo(b, batch, batch.Inverse(), func(bb incgraph.Batch) error { _, err := e.Apply(bb); return err })
		})
	}
}

// ---- SCC panels: Fig. 8(c) dbpedia, 8(g) livej, 8(i) synthetic,
// 8(o) vary G.

func benchSCC(b *testing.B, ds string, pct int) {
	g := dataset(b, ds, 1.0)
	batch := deltaBatch(g, pct, 3)
	undo := batch.Inverse()
	b.Run("IncSCC", func(b *testing.B) {
		s := incgraph.NewSCC(g.Clone())
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := s.Apply(bb); return err })
	})
	b.Run("IncSCCn", func(b *testing.B) {
		s := incgraph.NewSCC(g.Clone())
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := s.ApplyUnitwise(bb); return err })
	})
	b.Run("Tarjan", func(b *testing.B) {
		h := g.Clone()
		if err := h.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			incgraph.SCCOf(h)
		}
	})
}

func BenchmarkFig08c_SCC_dbpedia(b *testing.B)   { benchSCC(b, "dbpedia", 10) }
func BenchmarkFig08g_SCC_livej(b *testing.B)     { benchSCC(b, "livej", 10) }
func BenchmarkFig08i_SCC_synthetic(b *testing.B) { benchSCC(b, "synthetic", 10) }
func BenchmarkFig08o_SCC_varyG(b *testing.B) {
	for _, sc := range []float64{0.2, 0.6, 1.0} {
		b.Run(fmt.Sprintf("scale%.1f", sc), func(b *testing.B) {
			g, err := incgraph.Dataset("synthetic", sc*benchScale, 1)
			if err != nil {
				b.Fatal(err)
			}
			batch := deltaBatch(g, 15, 3)
			s := incgraph.NewSCC(g)
			applyUndo(b, batch, batch.Inverse(), func(bb incgraph.Batch) error { _, err := s.Apply(bb); return err })
		})
	}
}

// ---- ISO panels: Fig. 8(d) dbpedia, 8(h) livej, 8(l) vary Q, 8(p) vary G.

func benchISO(b *testing.B, ds string, vq, eq, dq, pct int) {
	g := dataset(b, ds, 1.0)
	p, err := incgraph.RandomISOPattern(g, vq, eq, dq, 2)
	if err != nil {
		b.Fatal(err)
	}
	batch := deltaBatch(g, pct, 3)
	undo := batch.Inverse()
	b.Run("IncISO", func(b *testing.B) {
		ix := incgraph.NewISO(g.Clone(), p)
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := ix.Apply(bb); return err })
	})
	b.Run("IncISOn", func(b *testing.B) {
		ix := incgraph.NewISO(g.Clone(), p)
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := ix.ApplyUnitwise(bb); return err })
	})
	b.Run("VF2", func(b *testing.B) {
		h := g.Clone()
		if err := h.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			incgraph.FindMatches(h, p, 0)
		}
	})
}

func BenchmarkFig08d_ISO_dbpedia(b *testing.B) { benchISO(b, "dbpedia", 4, 6, 2, 10) }
func BenchmarkFig08h_ISO_livej(b *testing.B)   { benchISO(b, "livej", 4, 6, 2, 10) }
func BenchmarkFig08l_ISO_varyQ(b *testing.B) {
	for _, q := range [][3]int{{3, 5, 1}, {5, 7, 3}, {7, 9, 5}} {
		b.Run(fmt.Sprintf("v%d_e%d_d%d", q[0], q[1], q[2]), func(b *testing.B) {
			benchISO(b, "dbpedia", q[0], q[1], q[2], 10)
		})
	}
}
func BenchmarkFig08p_ISO_varyG(b *testing.B) {
	for _, sc := range []float64{0.2, 0.6, 1.0} {
		b.Run(fmt.Sprintf("scale%.1f", sc), func(b *testing.B) {
			g, err := incgraph.Dataset("synthetic", sc*benchScale, 1)
			if err != nil {
				b.Fatal(err)
			}
			p, err := incgraph.RandomISOPattern(g, 4, 6, 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			batch := deltaBatch(g, 15, 3)
			ix := incgraph.NewISO(g, p)
			applyUndo(b, batch, batch.Inverse(), func(bb incgraph.Batch) error { _, err := ix.Apply(bb); return err })
		})
	}
}

// ---- in-text tables: unit-update speedups and batching gains.

func BenchmarkUnitUpdate(b *testing.B) {
	g := dataset(b, "dbpedia", 1.0)
	one := deltaBatch(g, 0, 5) // a single unit update
	undo := one.Inverse()
	q, err := incgraph.RandomKWSQuery(g, 3, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("KWS_inc", func(b *testing.B) {
		ix, err := incgraph.NewKWS(g.Clone(), q)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, one, undo, func(bb incgraph.Batch) error { _, err := ix.Apply(bb); return err })
	})
	b.Run("KWS_batch", func(b *testing.B) {
		h := g.Clone()
		if err := h.ApplyBatch(one); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := incgraph.NewKWS(h.Clone(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SCC_inc", func(b *testing.B) {
		s := incgraph.NewSCC(g.Clone())
		applyUndo(b, one, undo, func(bb incgraph.Batch) error { _, err := s.Apply(bb); return err })
	})
	b.Run("SCC_batch", func(b *testing.B) {
		h := g.Clone()
		if err := h.ApplyBatch(one); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			incgraph.SCCOf(h)
		}
	})
}

func BenchmarkBatchOpt(b *testing.B) {
	// The "optimization strategies improve performance by 1.6x" table:
	// grouped IncX vs unit-at-a-time IncXn at |ΔG| = 10%, KWS shown here;
	// the full table comes from cmd/benchmark -fig opt.
	g := dataset(b, "dbpedia", 1.0)
	q, err := incgraph.RandomKWSQuery(g, 3, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	batch := deltaBatch(g, 10, 3)
	undo := batch.Inverse()
	b.Run("grouped", func(b *testing.B) {
		ix, err := incgraph.NewKWS(g.Clone(), q)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := ix.Apply(bb); return err })
	})
	b.Run("unitwise", func(b *testing.B) {
		ix, err := incgraph.NewKWS(g.Clone(), q)
		if err != nil {
			b.Fatal(err)
		}
		applyUndo(b, batch, undo, func(bb incgraph.Batch) error { _, err := ix.ApplyUnitwise(bb); return err })
	})
}

// ---- commit path: the shapes of the repository benchmark's workloads.
//
// One op is one Durable.Commit — validate, WAL append (no fsync, as the
// daemon under perf/ runs), base graph, every engine — over a forward pass
// of batches and then its undo, so the graph returns to the seed state
// every cycle. "/inplace" builds the engines on the store's graph, as
// incgraphd does: ΔG is validated and applied once and each engine only
// repairs. "/clones" gives every engine a clone of its own, the library
// path perf/'s in-process replay still takes: each engine validates and
// applies ΔG to its copy again. Worker budget and shard count are the
// defaults, GOMAXPROCS: `-cpu 1,2` is the sequential commit next to the
// one that may fan out.

type commitShape struct {
	graph   func() (*incgraph.Graph, error)
	classes []string
	dense   bool // gen.RPQDense, as on repair-match
	batch   int
}

func matchShapeGraph() (*incgraph.Graph, error) {
	g, err := gen.Dataset("dbpedia", 1, 1)
	if err != nil {
		return nil, err
	}
	return gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, 51), nil
}

var (
	commitMatch = commitShape{
		graph:   matchShapeGraph,
		classes: []string{"kws", "rpq", "iso"}, dense: true, batch: 32,
	}
	commitIngest = commitShape{
		graph:   func() (*incgraph.Graph, error) { return gen.Dataset("dbpedia", 1, 1) },
		classes: []string{"kws", "rpq"}, batch: 4,
	}
	commitSCC = commitShape{
		graph:   func() (*incgraph.Graph, error) { return gen.Dataset("livej", 0.1, 1) },
		classes: []string{"kws", "scc"}, batch: 32,
	}
)

// open creates a durable store on the shape's graph with its engines
// attached — in place on that graph, or each on a clone of it — and the
// cycle of batches to commit: passes forward batches, then their undo.
// workers is the budget of every graph involved.
func (s commitShape) open(tb testing.TB, passes, workers int, inPlace bool) (*incgraph.Durable, []incgraph.Batch) {
	tb.Helper()
	g, err := s.graph()
	if err != nil {
		tb.Fatal(err)
	}
	g.SetParallelism(workers) // 0: the default; the engines' clones inherit it
	engineGraph := func() *incgraph.Graph {
		if inPlace {
			return g
		}
		return g.Clone()
	}
	d, err := incgraph.CreateDurable(tb.TempDir(), g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	for _, class := range s.classes {
		var m incgraph.Maintained
		switch class {
		case "kws":
			q, err := gen.KWSQuery(g, 3, 2, 1)
			if err != nil {
				tb.Fatal(err)
			}
			ix, err := incgraph.NewKWS(engineGraph(), q)
			if err != nil {
				tb.Fatal(err)
			}
			m = incgraph.MaintainKWS(ix)
		case "rpq":
			query := gen.RPQQuery
			if s.dense {
				query = gen.RPQDense
			}
			q, err := query(g, 4, 1)
			if err != nil {
				tb.Fatal(err)
			}
			e, err := incgraph.NewRPQFromAst(engineGraph(), q)
			if err != nil {
				tb.Fatal(err)
			}
			m = incgraph.MaintainRPQ(e)
		case "iso":
			p, err := gen.ISOQuery(g, 4, 3, 2, 1)
			if err != nil {
				tb.Fatal(err)
			}
			m = incgraph.MaintainISO(incgraph.NewISO(engineGraph(), p))
		case "scc":
			m = incgraph.MaintainSCC(incgraph.NewSCC(engineGraph()))
		}
		if err := d.Attach(m); err != nil {
			tb.Fatal(err)
		}
	}
	all := gen.Updates(g, gen.UpdateSpec{Count: passes * s.batch, InsertRatio: 0.5, Locality: 0.8, Seed: 5})
	cycle := make([]incgraph.Batch, 0, 2*passes)
	for i := 0; i < passes; i++ {
		cycle = append(cycle, all[i*s.batch:(i+1)*s.batch])
	}
	for i := passes - 1; i >= 0; i-- {
		cycle = append(cycle, cycle[i].Inverse())
	}
	return d, cycle
}

func benchCommit(b *testing.B, s commitShape) {
	for _, mode := range []struct {
		name    string
		inPlace bool
	}{{"clones", false}, {"inplace", true}} {
		b.Run(mode.name, func(b *testing.B) {
			d, cycle := s.open(b, 200, 0, mode.inPlace)
			// One cycle untimed: scratch pools, plan pool and engine buffers warm.
			for _, batch := range cycle {
				if _, err := d.Commit(batch, incgraph.ApplyOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Commit(cycle[i%len(cycle)], incgraph.ApplyOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCommitMatch(b *testing.B)  { benchCommit(b, commitMatch) }
func BenchmarkCommitIngest(b *testing.B) { benchCommit(b, commitIngest) }
func BenchmarkCommitSCC(b *testing.B)    { benchCommit(b, commitSCC) }

// TestWarmCommitWaitsForNobody pins what the commit benchmarks measure: at
// a worker budget of 2, an ordinary warm batch-32 commit on the match
// shape (engines in place, as the daemon runs them) runs every iteration of every loop on the committing goroutine —
// each loop offers its work to one helper, the loop is over before the
// helper arrives, and the commit waits for nobody. The engines' builds,
// long loops, must have engaged their helpers. The occasional commit with
// a repair long enough for help to arrive in time is entitled to it, so
// the claim is about the typical commit: more than half of a cycle.
func TestWarmCommitWaitsForNobody(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector ordinary repairs outlast a helper's arrival")
	}
	if d := fanOut(func() { graph.ParallelFor(2, 2, func(int, int) {}) }); d.Engaged != 0 {
		t.Skip("fan-out is forced (graph.EagerFanOut or -tags eagerfanout)")
	}
	var d *incgraph.Durable
	var cycle []incgraph.Batch
	if build := fanOut(func() { d, cycle = commitMatch.open(t, 32, 2, true) }); build.Engaged == 0 {
		t.Errorf("no loop of the engine builds engaged a helper: %+v", build)
	}
	commit := func(b incgraph.Batch) {
		if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range cycle {
		commit(b)
	}
	alone := 0
	var total graph.FanOutStats
	start := time.Now()
	for _, b := range cycle {
		c := fanOut(func() { commit(b) })
		total.Loops += c.Loops
		total.Helpers += c.Helpers
		if c.Engaged == 0 {
			alone++
		}
	}
	if per := time.Since(start) / time.Duration(len(cycle)); per > time.Millisecond {
		t.Skipf("a commit takes %v here, several times what it should: on this machine ordinary repairs outlast a helper's arrival", per)
	}
	if total.Loops == 0 {
		t.Fatal("no ParallelFor ran: the commits did not reach the engines")
	}
	if total.Helpers > total.Loops {
		t.Errorf("%d helpers started for %d loops: short loops must offer their work once", total.Helpers, total.Loops)
	}
	if alone <= len(cycle)/2 {
		t.Fatalf("only %d of %d warm commits ran on the committing goroutine alone", alone, len(cycle))
	}
	t.Logf("%d of %d warm commits ran on the committing goroutine alone (%d loops, %d helpers offered)", alone, len(cycle), total.Loops, total.Helpers)
}

// fanOut runs f and returns how the ParallelFor counters moved.
func fanOut(f func()) graph.FanOutStats {
	before := graph.ReadFanOutStats()
	f()
	return graph.ReadFanOutStats().Sub(before)
}

// BenchmarkApplyBatchSweep is the sweep behind ApplyBatch being one serial
// loop: ΔG of 8…4096 updates on the repair-match graph (two shards).
// "apply" is ApplyBatch, ΔG and then its undo, at worker budgets 1 and 2.
// "plan" is what any two-phase application must do serially before a
// single shard can start — validate ΔG and compile its per-shard effects
// (PlanBatch, which the multi-process runtime uses): it alone costs about
// what the whole serial application does, so no number of workers on the
// per-shard phase can make a planned in-process application win. (Run on
// PR 13's commit, where a budget of 2 took that path from 32 updates on,
// "apply/workers=2" is two to five times "apply/workers=1".) ns/update is
// per unit update.
func BenchmarkApplyBatchSweep(b *testing.B) {
	seed, err := matchShapeGraph()
	if err != nil {
		b.Fatal(err)
	}
	seed.SetShards(2)
	perUpdate := func(b *testing.B, updates int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(updates), "ns/update")
	}
	for size := 8; size <= 4096; size *= 2 {
		fwd := gen.Updates(seed, gen.UpdateSpec{Count: size, InsertRatio: 0.5, Locality: 0.8, Seed: 5})
		rev := fwd.Inverse()
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("batch=%d/apply/workers=%d", size, workers), func(b *testing.B) {
				g := seed.Clone()
				g.SetParallelism(workers)
				applyUndo(b, fwd, rev, g.ApplyBatch)
				perUpdate(b, 2*size)
			})
		}
		b.Run(fmt.Sprintf("batch=%d/plan", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, ok := seed.PlanBatch(fwd)
				if !ok {
					b.Fatal("ΔG does not apply")
				}
				plan.Release()
			}
			perUpdate(b, size)
		})
	}
}

// BenchmarkKWSBuild is the batch build whose loops must keep their width:
// per node, per keyword, per node again.
func BenchmarkKWSBuild(b *testing.B) {
	g, err := matchShapeGraph()
	if err != nil {
		b.Fatal(err)
	}
	q, err := gen.KWSQuery(g, 3, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g.SetParallelism(workers)
			for i := 0; i < b.N; i++ {
				if _, err := incgraph.NewKWS(g, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
