package bench

import (
	"fmt"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rex"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// updates builds a ρ=1 random batch of the given size. Insertions are 80%
// topology-local (2-hop shortcuts), matching how real edges arrive; see
// gen.UpdateSpec.Locality and EXPERIMENTS.md.
func updates(g *graph.Graph, count int, seed int64) graph.Batch {
	return gen.Updates(g, gen.UpdateSpec{Count: count, InsertRatio: 0.5, Locality: 1.0, Seed: seed})
}

// Dataset scales per query class: RPQ and ISO carry heavier per-node costs,
// so their panels run on smaller simulations.
const (
	kwsScale = 1.0
	rpqScale = 0.05
	sccScale = 0.4
	isoScale = 1.0
)

// ---- per-class runners ------------------------------------------------

func kwsRunners(q kws.Query) []runner {
	return []runner{
		{"IncKWS", func(g *graph.Graph, b graph.Batch) (sample, error) {
			ix, err := kws.Build(g.Clone(), q, nil)
			if err != nil {
				return sample{}, err
			}
			return timed(func() error { _, err := ix.Apply(b); return err })
		}},
		{"IncKWSn", func(g *graph.Graph, b graph.Batch) (sample, error) {
			ix, err := kws.Build(g.Clone(), q, nil)
			if err != nil {
				return sample{}, err
			}
			return timed(func() error { _, err := ix.ApplyUnitwise(b); return err })
		}},
		{"BLINKS", func(g *graph.Graph, b graph.Batch) (sample, error) {
			h := g.Clone()
			if err := h.ApplyBatch(b); err != nil {
				return sample{}, err
			}
			// The batch output Q(G) is a set of match *trees*: the batch
			// run pays their materialization for every root, where the
			// incremental runs only touch changed roots.
			return timed(func() error {
				ix, err := kws.Build(h, q, nil)
				if err != nil {
					return err
				}
				for _, r := range ix.MatchRoots() {
					ix.MatchTree(r)
				}
				return nil
			})
		}},
	}
}

func rpqRunners(ast *rex.Ast) []runner {
	return []runner{
		{"IncRPQ", func(g *graph.Graph, b graph.Batch) (sample, error) {
			e, err := rpq.NewEngine(g.Clone(), ast, nil)
			if err != nil {
				return sample{}, err
			}
			return timed(func() error { _, err := e.Apply(b); return err })
		}},
		{"IncRPQn", func(g *graph.Graph, b graph.Batch) (sample, error) {
			e, err := rpq.NewEngine(g.Clone(), ast, nil)
			if err != nil {
				return sample{}, err
			}
			return timed(func() error { _, err := e.ApplyUnitwise(b); return err })
		}},
		{"RPQNFA", func(g *graph.Graph, b graph.Batch) (sample, error) {
			h := g.Clone()
			if err := h.ApplyBatch(b); err != nil {
				return sample{}, err
			}
			return timed(func() error { _, err := rpq.BatchAnswer(h, ast, nil); return err })
		}},
	}
}

func sccRunners() []runner {
	return []runner{
		{"IncSCC", func(g *graph.Graph, b graph.Batch) (sample, error) {
			s := scc.Build(g.Clone(), nil)
			return timed(func() error { _, err := s.Apply(b); return err })
		}},
		{"IncSCCn", func(g *graph.Graph, b graph.Batch) (sample, error) {
			s := scc.Build(g.Clone(), nil)
			return timed(func() error { _, err := s.ApplyUnitwise(b); return err })
		}},
		{"Tarjan", func(g *graph.Graph, b graph.Batch) (sample, error) {
			h := g.Clone()
			if err := h.ApplyBatch(b); err != nil {
				return sample{}, err
			}
			return timed(func() error { scc.Components(h); return nil })
		}},
		{"DynSCC", func(g *graph.Graph, b graph.Batch) (sample, error) {
			d := scc.BuildDyn(g.Clone(), nil)
			return timed(func() error { return d.Apply(b) })
		}},
	}
}

func isoRunners(p *iso.Pattern) []runner {
	return []runner{
		{"IncISO", func(g *graph.Graph, b graph.Batch) (sample, error) {
			ix := iso.Build(g.Clone(), p, nil)
			return timed(func() error { _, err := ix.Apply(b); return err })
		}},
		{"IncISOn", func(g *graph.Graph, b graph.Batch) (sample, error) {
			ix := iso.Build(g.Clone(), p, nil)
			return timed(func() error { _, err := ix.ApplyUnitwise(b); return err })
		}},
		{"VF2", func(g *graph.Graph, b graph.Batch) (sample, error) {
			h := g.Clone()
			if err := h.ApplyBatch(b); err != nil {
				return sample{}, err
			}
			return timed(func() error { iso.BatchAnswer(h, p, nil); return nil })
		}},
	}
}

// ---- vary-|ΔG| panels (Fig. 8 a–i) -------------------------------------

func varyDeltaFigure(cfg Config, id, title, dataset string, dsScale float64, mk func(g *graph.Graph) ([]runner, string, error)) (*Result, error) {
	g, err := gen.Dataset(dataset, dsScale*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	switch title {
	case "RPQ":
		// RPQ panels fold the alphabet to 5 labels; see EXPERIMENTS.md.
		g = gen.Relabel(g, 5)
	case "ISO":
		// ISO panels fold the alphabet to 6 and add short-range clustering
		// so motifs have non-trivial embeddings; see EXPERIMENTS.md.
		g = gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, cfg.Seed+50)
	}
	g = cfg.tune(g)
	runners, desc, err := mk(g)
	if err != nil {
		return nil, err
	}
	pcts := clip(cfg, deltaPcts)
	batches := pctBatches(g, pcts, cfg.Seed+100)
	series, err := sweep(g, batches, runners)
	if err != nil {
		return nil, err
	}
	x := make([]string, len(pcts))
	for i, p := range pcts {
		x[i] = fmt.Sprintf("%d%%", p)
	}
	res := &Result{
		ID:     id,
		Title:  fmt.Sprintf("%s — varying |ΔG| (%s-sim |V|=%d |E|=%d, %s)", title, dataset, g.NumNodes(), g.NumEdges(), desc),
		XLabel: "|ΔG|/|G|",
		X:      x,
		Series: series,
	}
	res.Notes = append(res.Notes,
		crossNote(x, series[0], series[len(series)-1-boolToInt(len(series) == 4)]),
		crossNote(x, series[0], series[1]))
	return res, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mkKWS(cfg Config) func(g *graph.Graph) ([]runner, string, error) {
	return func(g *graph.Graph) ([]runner, string, error) {
		q, err := gen.KWSQuery(g, 3, 2, cfg.Seed+1)
		if err != nil {
			return nil, "", err
		}
		return kwsRunners(q), "m=3 b=2", nil
	}
}

func mkRPQ(cfg Config) func(g *graph.Graph) ([]runner, string, error) {
	return func(g *graph.Graph) ([]runner, string, error) {
		ast, err := gen.RPQDense(g, 4, cfg.Seed+2)
		if err != nil {
			return nil, "", err
		}
		return rpqRunners(ast), fmt.Sprintf("|Q|=4 (%s)", ast), nil
	}
}

func mkSCC(cfg Config) func(g *graph.Graph) ([]runner, string, error) {
	return func(g *graph.Graph) ([]runner, string, error) {
		return sccRunners(), "constant query", nil
	}
}

func mkISO(cfg Config) func(g *graph.Graph) ([]runner, string, error) {
	return func(g *graph.Graph) ([]runner, string, error) {
		p, err := gen.ISOQuery(g, 4, 6, 2, cfg.Seed+3)
		if err != nil {
			return nil, "", err
		}
		return isoRunners(p), "|Q|=(4,6,2)", nil
	}
}

// ---- vary-query panels (Fig. 8 j–l) -------------------------------------

func figVaryKWSQuery(cfg Config) (*Result, error) {
	g, err := gen.Dataset("dbpedia", kwsScale*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g = cfg.tune(g)
	batch := updates(g, 10*g.NumEdges()/100, cfg.Seed+100)
	params := clip(cfg, [][2]int{{2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}})
	res := &Result{
		ID:     "8j",
		Title:  fmt.Sprintf("KWS — varying Q=(m,b) at |ΔG|=10%% (dbpedia-sim |V|=%d |E|=%d)", g.NumNodes(), g.NumEdges()),
		XLabel: "(m,b)",
	}
	var lines []Series
	for i, mb := range params {
		q, err := gen.KWSQuery(g, mb[0], mb[1], cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		series, err := sweep(g, []graph.Batch{batch}, kwsRunners(q))
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, fmt.Sprintf("(%d,%d)", mb[0], mb[1]))
		lines = appendPoint(lines, series)
	}
	res.Series = lines
	return res, nil
}

func figVaryRPQQuery(cfg Config) (*Result, error) {
	g, err := gen.Dataset("dbpedia", rpqScale*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g = cfg.tune(gen.Relabel(g, 5))
	batch := updates(g, 10*g.NumEdges()/100, cfg.Seed+100)
	sizes := clip(cfg, []int{3, 4, 5, 6, 7})
	res := &Result{
		ID:     "8k",
		Title:  fmt.Sprintf("RPQ — varying |Q| at |ΔG|=10%% (dbpedia-sim |V|=%d |E|=%d)", g.NumNodes(), g.NumEdges()),
		XLabel: "|Q|",
	}
	var lines []Series
	for i, size := range sizes {
		ast, err := gen.RPQDense(g, size, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		series, err := sweep(g, []graph.Batch{batch}, rpqRunners(ast))
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, fmt.Sprintf("%d", size))
		lines = appendPoint(lines, series)
	}
	res.Series = lines
	return res, nil
}

func figVaryISOQuery(cfg Config) (*Result, error) {
	g, err := gen.Dataset("dbpedia", isoScale*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g = cfg.tune(gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, cfg.Seed+50))
	batch := updates(g, 10*g.NumEdges()/100, cfg.Seed+100)
	params := clip(cfg, [][3]int{{3, 5, 1}, {4, 6, 2}, {5, 7, 3}, {6, 8, 4}, {7, 9, 5}})
	res := &Result{
		ID:     "8l",
		Title:  fmt.Sprintf("ISO — varying Q=(|VQ|,|EQ|,dQ) at |ΔG|=10%% (dbpedia-sim |V|=%d |E|=%d)", g.NumNodes(), g.NumEdges()),
		XLabel: "(v,e,d)",
	}
	var lines []Series
	for i, p3 := range params {
		p, err := gen.ISOQuery(g, p3[0], p3[1], p3[2], cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		series, err := sweep(g, []graph.Batch{batch}, isoRunners(p))
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, fmt.Sprintf("(%d,%d,%d)", p3[0], p3[1], p3[2]))
		lines = appendPoint(lines, series)
	}
	res.Series = lines
	return res, nil
}

// appendPoint concatenates a one-point sweep onto accumulated lines.
func appendPoint(lines []Series, point []Series) []Series {
	if lines == nil {
		return point
	}
	for i := range lines {
		lines[i].Seconds = append(lines[i].Seconds, point[i].Seconds[0])
		lines[i].Allocs = append(lines[i].Allocs, point[i].Allocs[0])
	}
	return lines
}

// ---- vary-|G| panels (Fig. 8 m–p) ---------------------------------------

func varyGFigure(cfg Config, id, title string, dsScale float64, mk func(g *graph.Graph) ([]runner, string, error)) (*Result, error) {
	scales := clip(cfg, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
	res := &Result{ID: id, XLabel: "scale"}
	var lines []Series
	var desc string
	for i, sf := range scales {
		g, err := gen.Dataset("synthetic", sf*dsScale*cfg.scale(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		switch title {
		case "RPQ":
			g = gen.Relabel(g, 5)
		case "ISO":
			g = gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, cfg.Seed+50)
		}
		g = cfg.tune(g)
		runners, d, err := mk(g)
		if err != nil {
			return nil, err
		}
		desc = d
		// Fixed |ΔG| across scale factors, like the paper's 15M on a 100M
		// base: 15% of the full-scale edge count.
		full, err := gen.Dataset("synthetic", dsScale*cfg.scale(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		count := 15 * full.NumEdges() / 100
		if count > g.NumEdges() {
			count = g.NumEdges()
		}
		batch := updates(g, count, cfg.Seed+int64(i))
		series, err := sweep(g, []graph.Batch{batch}, runners)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, fmt.Sprintf("%.1f", sf))
		lines = appendPoint(lines, series)
	}
	res.Series = lines
	res.Title = fmt.Sprintf("%s — varying |G| (synthetic, fixed |ΔG|, %s)", title, desc)
	return res, nil
}

// ---- in-text tables ------------------------------------------------------

// figUnit reproduces Exp-1(5): unit-update speedups of the incremental
// algorithms over their batch counterparts.
func figUnit(cfg Config) (*Result, error) {
	res := &Result{
		ID:     "unit",
		Title:  "Unit updates — incremental vs batch (Exp-1(5))",
		XLabel: "class",
	}
	type class struct {
		name string
		mk   func(g *graph.Graph) ([]runner, string, error)
		ds   string
		sc   float64
	}
	classes := []class{
		{"KWS", mkKWS(cfg), "dbpedia", kwsScale},
		{"RPQ", mkRPQ(cfg), "dbpedia", rpqScale},
		{"SCC", mkSCC(cfg), "dbpedia", sccScale},
		{"ISO", mkISO(cfg), "dbpedia", isoScale},
	}
	inc := Series{Name: "Incremental"}
	batch := Series{Name: "Batch"}
	for _, c := range classes {
		g, err := gen.Dataset(c.ds, c.sc*cfg.scale(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		g = cfg.tune(g)
		runners, _, err := c.mk(g)
		if err != nil {
			return nil, err
		}
		one := updates(g, 2, cfg.Seed+7) // one insertion + one deletion
		series, err := sweep(g, []graph.Batch{one}, runners)
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, c.name)
		bi := len(series) - 1 - boolToInt(len(series) == 4)
		inc.Seconds = append(inc.Seconds, series[0].Seconds[0])
		inc.Allocs = append(inc.Allocs, series[0].Allocs[0])
		batch.Seconds = append(batch.Seconds, series[bi].Seconds[0])
		batch.Allocs = append(batch.Allocs, series[bi].Allocs[0])
		sp := series[bi].Seconds[0] / maxf(series[0].Seconds[0], 1e-9)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: unit-update speedup %.0fx", c.name, sp))
	}
	res.Series = []Series{inc, batch}
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// figOpt reproduces the batch-optimization table: IncX vs IncXn at
// |ΔG| = 10% ("1.6 times on average").
func figOpt(cfg Config) (*Result, error) {
	res := &Result{
		ID:     "opt",
		Title:  "Batch-update optimization — IncX vs IncXn at |ΔG|=10%",
		XLabel: "class",
	}
	type class struct {
		name string
		mk   func(g *graph.Graph) ([]runner, string, error)
		ds   string
		sc   float64
	}
	classes := []class{
		{"KWS", mkKWS(cfg), "dbpedia", kwsScale},
		{"RPQ", mkRPQ(cfg), "dbpedia", rpqScale},
		{"SCC", mkSCC(cfg), "dbpedia", sccScale},
		{"ISO", mkISO(cfg), "dbpedia", isoScale},
	}
	grouped := Series{Name: "IncX"}
	unitwise := Series{Name: "IncXn"}
	total := 0.0
	for _, c := range classes {
		g, err := gen.Dataset(c.ds, c.sc*cfg.scale(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		g = cfg.tune(g)
		runners, _, err := c.mk(g)
		if err != nil {
			return nil, err
		}
		batch := updates(g, 10*g.NumEdges()/100, cfg.Seed+9)
		series, err := sweep(g, []graph.Batch{batch}, runners[:2])
		if err != nil {
			return nil, err
		}
		res.X = append(res.X, c.name)
		grouped.Seconds = append(grouped.Seconds, series[0].Seconds[0])
		grouped.Allocs = append(grouped.Allocs, series[0].Allocs[0])
		unitwise.Seconds = append(unitwise.Seconds, series[1].Seconds[0])
		unitwise.Allocs = append(unitwise.Allocs, series[1].Allocs[0])
		total += series[1].Seconds[0] / maxf(series[0].Seconds[0], 1e-9)
	}
	res.Series = []Series{grouped, unitwise}
	res.Notes = append(res.Notes, fmt.Sprintf("average batching gain %.1fx (paper reports 1.6x)", total/float64(len(classes))))
	return res, nil
}

// ---- registry -------------------------------------------------------------

var registry = map[string]func(Config) (*Result, error){
	"8a": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8a", "KWS", "dbpedia", kwsScale, mkKWS(c))
	},
	"8b": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8b", "RPQ", "dbpedia", rpqScale, mkRPQ(c))
	},
	"8c": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8c", "SCC", "dbpedia", sccScale, mkSCC(c))
	},
	"8d": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8d", "ISO", "dbpedia", isoScale, mkISO(c))
	},
	"8e": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8e", "KWS", "livej", kwsScale, mkKWS(c))
	},
	"8f": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8f", "RPQ", "livej", rpqScale, mkRPQ(c))
	},
	"8g": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8g", "SCC", "livej", sccScale, mkSCC(c))
	},
	"8h": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8h", "ISO", "livej", isoScale, mkISO(c))
	},
	"8i": func(c Config) (*Result, error) {
		return varyDeltaFigure(c, "8i", "SCC", "synthetic", sccScale, mkSCC(c))
	},
	"8j":       figVaryKWSQuery,
	"8k":       figVaryRPQQuery,
	"8l":       figVaryISOQuery,
	"8m":       func(c Config) (*Result, error) { return varyGFigure(c, "8m", "KWS", kwsScale, mkKWS(c)) },
	"8n":       func(c Config) (*Result, error) { return varyGFigure(c, "8n", "RPQ", rpqScale, mkRPQ(c)) },
	"8o":       func(c Config) (*Result, error) { return varyGFigure(c, "8o", "SCC", sccScale, mkSCC(c)) },
	"8p":       func(c Config) (*Result, error) { return varyGFigure(c, "8p", "ISO", isoScale, mkISO(c)) },
	"unit":     figUnit,
	"opt":      figOpt,
	"ablation": figAblation,
	"store":    figStore,
	"cluster":  figCluster,
}

// figAblation measures two design choices of IncSCC: the
// tree-arc re-parenting fast path of IncSCC− (on/off) on the giant-SCC
// workload, and the insertion-locality sensitivity of IncSCC+ (local
// shortcut insertions vs uniform random ones, which trigger rank-window
// reorders).
func figAblation(cfg Config) (*Result, error) {
	g, err := gen.Dataset("livej", sccScale*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g = cfg.tune(g)
	res := &Result{
		ID:     "ablation",
		Title:  fmt.Sprintf("IncSCC ablations at |ΔG|=10%% (livej-sim |V|=%d |E|=%d)", g.NumNodes(), g.NumEdges()),
		XLabel: "variant",
	}
	batchLocal := updates(g, 10*g.NumEdges()/100, cfg.Seed+100)
	batchUniform := gen.Updates(g, gen.UpdateSpec{
		Count: 10 * g.NumEdges() / 100, InsertRatio: 0.5, Locality: 0, Seed: cfg.Seed + 100,
	})
	line := Series{Name: "IncSCC"}
	run := func(label string, batch graph.Batch, repair, unitwise bool) error {
		s := scc.Build(g.Clone(), nil)
		s.SetTreeArcRepair(repair)
		m, err := timed(func() error {
			if unitwise {
				_, err := s.ApplyUnitwise(batch)
				return err
			}
			_, err := s.Apply(batch)
			return err
		})
		if err != nil {
			return err
		}
		res.X = append(res.X, label)
		line.Seconds = append(line.Seconds, m.secs)
		line.Allocs = append(line.Allocs, m.allocs)
		return nil
	}
	// The tree-arc repair acts on the per-unit path; grouped batches
	// amortize a failed repair into one scoped Tarjan either way.
	if err := run("unit/repair", batchLocal, true, true); err != nil {
		return nil, err
	}
	if err := run("unit/norepair", batchLocal, false, true); err != nil {
		return nil, err
	}
	if err := run("batch/local-ins", batchLocal, true, false); err != nil {
		return nil, err
	}
	if err := run("batch/uniform-ins", batchUniform, true, false); err != nil {
		return nil, err
	}
	res.Series = []Series{line}
	res.Notes = append(res.Notes,
		"tree-arc re-parenting and insertion locality are the two levers behind IncSCC's profile; see EXPERIMENTS.md")
	return res, nil
}
