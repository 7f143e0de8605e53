package incgraph_test

// One testing.B benchmark per figure and table of the paper's evaluation
// (Section 6), on scaled-down dataset simulations:
//
//	go test -run '^$' -bench 'Fig08|UnitUpdate|BatchOpt' .
//
// regenerates the whole set. Fig. 8 a–i sweep |ΔG| from 5% to 40% of |E|,
// j–l vary the query and m–p the graph, at five points each. Every point
// runs every series of its class: the incremental algorithm (IncX), its
// unit-at-a-time variant (IncXn), the batch rival (BLINKS / RPQNFA /
// Tarjan / VF2) and, on SCC, the DynSCC baseline.
//
// Incremental benchmarks use the apply/undo pattern: each iteration applies
// ΔG and then its inverse, so the maintained state returns to the start
// without untimed per-iteration rebuilds. One op therefore measures two
// batch applications; the batch rivals recompute from a fixed updated
// graph, so one op is one recomputation. Relative comparisons are
// unaffected (halve the incremental numbers for absolute per-batch times).

import (
	"fmt"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// benchScale keeps the figures affordable: dbpedia-sim at 2k nodes.
const benchScale = 0.1

// rpqScale and isoScale halve the RPQ and ISO panels' graphs: RPQ_NFA has
// the heaviest per-node cost of the batch algorithms, and IncISOn runs VF2
// on a d_Q-neighbourhood per unit update (at full size, Fig. 8h alone takes
// a minute).
const (
	rpqScale = 0.5
	isoScale = 0.5
)

func dataset(b *testing.B, name string, classScale float64) *incgraph.Graph {
	b.Helper()
	g, err := incgraph.Dataset(name, classScale*benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// updates is a ΔG of count updates valid against g: half of them
// insertions, each a 2-hop shortcut along an existing path.
func updates(g *incgraph.Graph, count int, seed int64) incgraph.Batch {
	return incgraph.RandomUpdates(g, incgraph.UpdateSpec{
		Count:       max(count, 1),
		InsertRatio: 0.5,
		Locality:    1.0,
		Seed:        seed,
	})
}

// deltaBatch is a ΔG of pct% of g's edges.
func deltaBatch(g *incgraph.Graph, pct int, seed int64) incgraph.Batch {
	return updates(g, pct*g.NumEdges()/100, seed)
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

// ---- the four classes.

// engine is one class's IncX on a graph it owns: the Maintained adapter
// (Apply, and |Q(G)|) and the unit-at-a-time loop IncXn.
type engine struct {
	incgraph.Maintained
	unitwise applier
}

// A class is one query class with its graph and query fixed. g is G in the
// shape the class's panels use; build runs the batch algorithm on a copy of
// G and returns the engine, and recompute is the batch rival, Q(G) from
// scratch. The series are named IncX, IncXn and rival, with X the name.
type class struct {
	name, rival string
	g           *incgraph.Graph
	build       func(g *incgraph.Graph) (engine, error)
	recompute   func(g *incgraph.Graph) error
	// dyn is SCC's further incremental baseline, DynSCC; nil elsewhere.
	dyn func(g *incgraph.Graph) applier
}

func kwsClass(b *testing.B, g *incgraph.Graph, m, bound int) class {
	q, err := incgraph.RandomKWSQuery(g, m, bound, 2)
	if err != nil {
		b.Fatal(err)
	}
	return class{
		name: "KWS", rival: "BLINKS", g: g,
		build: func(g *incgraph.Graph) (engine, error) {
			ix, err := incgraph.NewKWS(g, q)
			if err != nil {
				return engine{}, err
			}
			return engine{incgraph.MaintainKWS(ix), func(bb incgraph.Batch) error { _, err := ix.ApplyUnitwise(bb); return err }}, nil
		},
		// BLINKS's answer is the set of match trees, so the rival pays for
		// every one; the incremental runs touch the changed roots only.
		recompute: func(g *incgraph.Graph) error {
			ix, err := incgraph.NewKWS(g, q)
			if err != nil {
				return err
			}
			for _, r := range ix.MatchRoots() {
				ix.MatchTree(r)
			}
			return nil
		},
	}
}

// rpqClass folds g's alphabet to 5 labels and asks gen.RPQDense's query of
// size label occurrences: a fully random expression's answer on the
// simulated graphs is often empty.
func rpqClass(b *testing.B, g *incgraph.Graph, size int) class {
	g = gen.Relabel(g, 5)
	q, err := gen.RPQDense(g, size, 2)
	if err != nil {
		b.Fatal(err)
	}
	return class{
		name: "RPQ", rival: "RPQNFA", g: g,
		build: func(g *incgraph.Graph) (engine, error) {
			e, err := incgraph.NewRPQFromAst(g, q)
			if err != nil {
				return engine{}, err
			}
			return engine{incgraph.MaintainRPQ(e), func(bb incgraph.Batch) error { _, err := e.ApplyUnitwise(bb); return err }}, nil
		},
		recompute: func(g *incgraph.Graph) error { _, err := rpq.BatchAnswer(g, q, nil); return err },
	}
}

func sccClass(g *incgraph.Graph) class {
	return class{
		name: "SCC", rival: "Tarjan", g: g,
		build: func(g *incgraph.Graph) (engine, error) {
			s := incgraph.NewSCC(g)
			return engine{incgraph.MaintainSCC(s), func(bb incgraph.Batch) error { _, err := s.ApplyUnitwise(bb); return err }}, nil
		},
		recompute: func(g *incgraph.Graph) error { incgraph.SCCOf(g); return nil },
		dyn:       func(g *incgraph.Graph) applier { return scc.BuildDyn(g, nil).Apply },
	}
}

// isoClass folds g to 6 labels and adds |E|/2 short-range edges, as
// perf/'s repair-match graph does, so that motifs have embeddings, and
// matches a tree pattern of v nodes and diameter d: the paper's patterns
// with |E_Q| > |V_Q| have none in the simulated graphs.
func isoClass(b *testing.B, g *incgraph.Graph, v, d int) class {
	g = gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, 51)
	p, err := incgraph.RandomISOPattern(g, v, v-1, d, 2)
	if err != nil {
		b.Fatal(err)
	}
	return class{
		name: "ISO", rival: "VF2", g: g,
		build: func(g *incgraph.Graph) (engine, error) {
			ix := incgraph.NewISO(g, p)
			return engine{incgraph.MaintainISO(ix), func(bb incgraph.Batch) error { _, err := ix.ApplyUnitwise(bb); return err }}, nil
		},
		recompute: func(g *incgraph.Graph) error { incgraph.FindMatches(g, p, 0); return nil },
	}
}

// point runs every series of c at one point of a panel: IncX, IncXn, the
// batch rival and, on SCC, DynSCC.
func (c class) point(b *testing.B, batch incgraph.Batch) {
	c.timeInc(b, batch, false)
	c.timeInc(b, batch, true)
	c.timeRival(b, batch)
	if c.dyn != nil {
		b.Run("DynSCC", func(b *testing.B) { applyUndo(b, batch, batch.Inverse(), c.dyn(c.g.Clone())) })
	}
}

// timeInc times IncX, or IncXn if unitwise, on an engine built on a copy
// of G. An empty Q(G) fails the benchmark: the engine would have nothing
// to maintain.
func (c class) timeInc(b *testing.B, batch incgraph.Batch, unitwise bool) {
	name := "Inc" + c.name
	if unitwise {
		name += "n"
	}
	b.Run(name, func(b *testing.B) {
		e, err := c.build(c.g.Clone())
		if err != nil {
			b.Fatal(err)
		}
		if e.Size() == 0 {
			b.Fatalf("%s: Q(G) is empty", name)
		}
		apply := e.unitwise
		if !unitwise {
			apply = func(bb incgraph.Batch) error { _, err := e.Apply(bb); return err }
		}
		applyUndo(b, batch, batch.Inverse(), apply)
	})
}

// timeRival times the batch rival recomputing Q(G ⊕ ΔG).
func (c class) timeRival(b *testing.B, batch incgraph.Batch) {
	b.Run(c.rival, func(b *testing.B) {
		h := c.g.Clone()
		if err := h.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.recompute(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- the panels' three axes.

// varyDelta is a Fig. 8 a–i panel (Exp-1): c at |ΔG| = 5%, 10%, …, 40%.
func varyDelta(b *testing.B, c class) {
	for pct := 5; pct <= 40; pct += 5 {
		b.Run(fmt.Sprintf("dG=%d%%", pct), func(b *testing.B) { c.point(b, deltaBatch(c.g, pct, 3)) })
	}
}

// varyQ is one point of a Fig. 8 j–l panel: c under one of five queries,
// at |ΔG| = 10%.
func varyQ(b *testing.B, query string, c class) {
	b.Run(query, func(b *testing.B) { c.point(b, deltaBatch(c.g, 10, 3)) })
}

// varyG is a Fig. 8 m–p panel (Exp-3): the class mk builds on synthetic
// graphs at five scales, under one |ΔG| fixed at 15% of the full-scale
// graph's edges.
func varyG(b *testing.B, classScale float64, mk func(g *incgraph.Graph) class) {
	scales := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	classes := make([]class, len(scales))
	for i, sc := range scales {
		classes[i] = mk(dataset(b, "synthetic", sc*classScale))
	}
	count := 15 * classes[len(classes)-1].g.NumEdges() / 100
	for i, c := range classes {
		b.Run(fmt.Sprintf("scale%.1f", scales[i]), func(b *testing.B) {
			c.point(b, updates(c.g, count, 3))
		})
	}
}

// ---- Fig. 8: KWS (a, e, j, m), RPQ (b, f, k, n), SCC (c, g, i, o),
// ISO (d, h, l, p).

func BenchmarkFig08a_KWS_dbpedia(b *testing.B) {
	varyDelta(b, kwsClass(b, dataset(b, "dbpedia", 1), 3, 2))
}

func BenchmarkFig08b_RPQ_dbpedia(b *testing.B) {
	varyDelta(b, rpqClass(b, dataset(b, "dbpedia", rpqScale), 4))
}

func BenchmarkFig08c_SCC_dbpedia(b *testing.B) {
	varyDelta(b, sccClass(dataset(b, "dbpedia", 1)))
}

func BenchmarkFig08d_ISO_dbpedia(b *testing.B) {
	varyDelta(b, isoClass(b, dataset(b, "dbpedia", isoScale), 4, 2))
}

func BenchmarkFig08e_KWS_livej(b *testing.B) {
	varyDelta(b, kwsClass(b, dataset(b, "livej", 1), 3, 2))
}

func BenchmarkFig08f_RPQ_livej(b *testing.B) {
	varyDelta(b, rpqClass(b, dataset(b, "livej", rpqScale), 4))
}

func BenchmarkFig08g_SCC_livej(b *testing.B) {
	varyDelta(b, sccClass(dataset(b, "livej", 1)))
}

func BenchmarkFig08h_ISO_livej(b *testing.B) {
	varyDelta(b, isoClass(b, dataset(b, "livej", isoScale), 4, 2))
}

func BenchmarkFig08i_SCC_synthetic(b *testing.B) {
	varyDelta(b, sccClass(dataset(b, "synthetic", 1)))
}

func BenchmarkFig08j_KWS_varyQ(b *testing.B) {
	g := dataset(b, "dbpedia", 1)
	for _, mb := range [][2]int{{2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}} {
		varyQ(b, fmt.Sprintf("m%d_b%d", mb[0], mb[1]), kwsClass(b, g, mb[0], mb[1]))
	}
}

func BenchmarkFig08k_RPQ_varyQ(b *testing.B) {
	g := dataset(b, "dbpedia", rpqScale)
	for size := 3; size <= 7; size++ {
		varyQ(b, fmt.Sprintf("size%d", size), rpqClass(b, g, size))
	}
}

func BenchmarkFig08l_ISO_varyQ(b *testing.B) {
	g := dataset(b, "dbpedia", isoScale)
	for _, vd := range [][2]int{{3, 2}, {4, 2}, {5, 3}, {6, 4}, {7, 5}} {
		varyQ(b, fmt.Sprintf("v%d_e%d_d%d", vd[0], vd[0]-1, vd[1]), isoClass(b, g, vd[0], vd[1]))
	}
}

func BenchmarkFig08m_KWS_varyG(b *testing.B) {
	varyG(b, 1, func(g *incgraph.Graph) class { return kwsClass(b, g, 3, 2) })
}

func BenchmarkFig08n_RPQ_varyG(b *testing.B) {
	varyG(b, rpqScale, func(g *incgraph.Graph) class { return rpqClass(b, g, 4) })
}

func BenchmarkFig08o_SCC_varyG(b *testing.B) {
	varyG(b, 1, sccClass)
}

func BenchmarkFig08p_ISO_varyG(b *testing.B) {
	varyG(b, isoScale, func(g *incgraph.Graph) class { return isoClass(b, g, 4, 2) })
}

// ---- in-text tables: unit-update speedups and batching gains.

// dbpediaClasses are the four classes at the queries of Fig. 8 a–d.
func dbpediaClasses(b *testing.B) []class {
	g := dataset(b, "dbpedia", 1)
	return []class{
		kwsClass(b, g, 3, 2),
		rpqClass(b, dataset(b, "dbpedia", rpqScale), 4),
		sccClass(g),
		isoClass(b, dataset(b, "dbpedia", isoScale), 4, 2),
	}
}

// BenchmarkUnitUpdate is Exp-1's unit-update table: IncX against its
// batch rival on a single update.
func BenchmarkUnitUpdate(b *testing.B) {
	for _, c := range dbpediaClasses(b) {
		one := updates(c.g, 1, 5)
		b.Run(c.name, func(b *testing.B) {
			c.timeInc(b, one, false)
			c.timeRival(b, one)
		})
	}
}

// BenchmarkBatchOpt is the "optimization strategies improve performance by
// 1.6 times" table: grouped IncX against unit-at-a-time IncXn at
// |ΔG| = 10%.
func BenchmarkBatchOpt(b *testing.B) {
	for _, c := range dbpediaClasses(b) {
		batch := deltaBatch(c.g, 10, 3)
		b.Run(c.name, func(b *testing.B) {
			c.timeInc(b, batch, false)
			c.timeInc(b, batch, true)
		})
	}
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
	s.attach(tb, d, g, engineGraph)
	return d, s.cycle(g, passes)
}

// attach builds the shape's engines, each on engineGraph() with its query
// drawn from seed, and attaches them to d in the shape's class order.
func (s commitShape) attach(tb testing.TB, d *incgraph.Durable, seed *incgraph.Graph, engineGraph func() *incgraph.Graph) {
	tb.Helper()
	for _, class := range s.classes {
		var m incgraph.Maintained
		switch class {
		case "kws":
			q, err := gen.KWSQuery(seed, 3, 2, 1)
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
			q, err := query(seed, 4, 1)
			if err != nil {
				tb.Fatal(err)
			}
			e, err := incgraph.NewRPQFromAst(engineGraph(), q)
			if err != nil {
				tb.Fatal(err)
			}
			m = incgraph.MaintainRPQ(e)
		case "iso":
			p, err := gen.ISOQuery(seed, 4, 3, 2, 1)
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
}

// cycle is the shape's stream on g: passes forward batches, then their
// undo.
func (s commitShape) cycle(g *incgraph.Graph, passes int) []incgraph.Batch {
	all := gen.Updates(g, gen.UpdateSpec{Count: passes * s.batch, InsertRatio: 0.5, Locality: 0.8, Seed: 5})
	cycle := make([]incgraph.Batch, 0, 2*passes)
	for i := 0; i < passes; i++ {
		cycle = append(cycle, all[i*s.batch:(i+1)*s.batch])
	}
	for i := passes - 1; i >= 0; i-- {
		cycle = append(cycle, cycle[i].Inverse())
	}
	return cycle
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

// BenchmarkRecover times a restart of each commit shape's store, whose
// state is a checkpoint of the shape's graph and, as the WAL's tail, one
// forward pass of its stream (200 batches). One op is what incgraphd does
// on a restart: OpenDurable (the snapshot load and the graph-only replay
// of the tail), then the shape's engines built in place on Graph() —
// queries drawn from the shape's graph, as at creation — and attached.
// The two halves are reported as open-ms and build-ms.
func BenchmarkRecover(b *testing.B) {
	for _, shape := range []struct {
		name string
		s    commitShape
	}{{"ingest", commitIngest}, {"scc", commitSCC}, {"match", commitMatch}} {
		b.Run(shape.name, func(b *testing.B) {
			s := shape.s
			g, err := s.graph()
			if err != nil {
				b.Fatal(err)
			}
			seed, dir := g.Clone(), b.TempDir()
			d, err := incgraph.CreateDurable(dir, g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			cycle := s.cycle(seed, 200)
			for _, batch := range cycle[:len(cycle)/2] {
				if _, err := d.Commit(batch, incgraph.ApplyOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			var open, build time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
				if err != nil {
					b.Fatal(err)
				}
				opened := time.Now()
				s.attach(b, r, seed, r.Graph)
				open += opened.Sub(start)
				build += time.Since(opened)
				b.StopTimer()
				if !r.Graph().Equal(g) {
					b.Fatal("the recovered graph is not the committed one")
				}
				r.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(open.Microseconds())/1e3/float64(b.N), "open-ms")
			b.ReportMetric(float64(build.Microseconds())/1e3/float64(b.N), "build-ms")
		})
	}
}

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
// the node list per shard, then the BFS per keyword.
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
