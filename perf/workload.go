package main

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rex"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// A workload is a seed graph, a set of standing queries and a cycle of
// update batches (see stream). Sizes were chosen on the seed commit.
type workload struct {
	name string
	// graph builds the seed graph.
	graph func() (*graph.Graph, error)
	// classes are the standing query classes.
	classes []string
	// rpqDense selects gen.RPQDense (supercritical star) over gen.RPQQuery.
	rpqDense bool
	// batch is the number of unit updates per commit; pass the number of
	// batches in the forward pass of a cycle; edge the number of batches
	// in the warm-up's forward half.
	batch, pass, edge int
	// reader adds a second connection that reads while the writer commits.
	reader bool
}

// The daemon attaches engines in this order; the in-process replay and the
// tables follow it.
var classOrder = []string{"kws", "rpq", "iso", "scc"}

// The seed graph and the standing queries of a workload are the same on
// every run: -seed varies the update stream only. What a commit costs
// depends on the graph's shape (how large the giant SCC is, how many
// embeddings a motif has) far more than on which edges a stream picks, so
// a graph per seed would make two runs of one workload two workloads.
const (
	graphSeed = 1
	querySeed = 1
)

func dbpedia(scale float64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return gen.Dataset("dbpedia", scale, graphSeed) }
}

func livej(scale float64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) { return gen.Dataset("livej", scale, graphSeed) }
}

// matchGraph is the Fig. 8 ISO/RPQ set-up: the alphabet folded to 6
// labels and short-range edges added, so path and motif queries have
// non-trivial partial embeddings.
func matchGraph(scale float64) func() (*graph.Graph, error) {
	return func() (*graph.Graph, error) {
		g, err := gen.Dataset("dbpedia", scale, graphSeed)
		if err != nil {
			return nil, err
		}
		return gen.Densify(gen.Relabel(g, 6), g.NumEdges()/2, graphSeed+50), nil
	}
}

// Why each workload exists is in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name:  "ingest-small",
		graph: dbpedia(1), classes: []string{"kws", "rpq"},
		batch: 4, pass: 4000, edge: 1000,
	},
	{
		name:  "repair-scc",
		graph: livej(0.1), classes: []string{"kws", "scc"},
		batch: 32, pass: 250, edge: 50,
	},
	{
		name:  "repair-match",
		graph: matchGraph(1), classes: []string{"kws", "rpq", "iso"}, rpqDense: true,
		batch: 32, pass: 800, edge: 100,
	},
	{
		name:  "read-write",
		graph: livej(0.1), classes: []string{"kws", "scc"},
		batch: 32, pass: 250, edge: 50, reader: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (w *workload) has(class string) bool { return slices.Contains(w.classes, class) }

// queries are the standing queries of one run. All four are generated on
// every workload: the classes that are not standing are still measured on
// sampled batches by the traced replay (see rivals.go).
type queries struct {
	kws kws.Query
	rpq *rex.Ast
	iso *iso.Pattern
}

func (w *workload) makeQueries(g *graph.Graph) (queries, error) {
	var q queries
	var err error
	if q.kws, err = gen.KWSQuery(g, 3, 2, querySeed); err != nil {
		return q, err
	}
	if w.rpqDense {
		q.rpq, err = gen.RPQDense(g, 4, querySeed)
	} else {
		q.rpq, err = gen.RPQQuery(g, 4, querySeed)
	}
	if err != nil {
		return q, err
	}
	// A 4-node tree: the paper's (4,6,2) motif has no embedding in the
	// simulated graphs at any scale a run can afford, and an engine with an
	// empty answer measures nothing.
	q.iso, err = gen.ISOQuery(g, 4, 3, 2, querySeed)
	return q, err
}

// engine is one maintained query class with the class-specific entry
// points the Maintained interface hides.
type engine struct {
	incgraph.Maintained
	// unitwise applies a batch one unit update at a time (the paper's
	// IncXn loop).
	unitwise func(graph.Batch) error
	// estimate is the cost model's verdict on the last Apply; nil for the
	// classes that have no model.
	estimate func() cost.Estimate
}

// build runs the batch algorithm of one class on g (which the returned
// engine then owns) — the same constructors the daemon's attachEngines
// reaches through the root package, with an optional work meter.
func (q queries) build(class string, g *graph.Graph, m *cost.Meter) (*engine, error) {
	switch class {
	case "kws":
		ix, err := kws.Build(g, q.kws, m)
		if err != nil {
			return nil, err
		}
		return &engine{
			Maintained: incgraph.MaintainKWS(ix),
			unitwise:   func(b graph.Batch) error { _, err := ix.ApplyUnitwise(b); return err },
			estimate:   ix.LastEstimate,
		}, nil
	case "rpq":
		e, err := rpq.NewEngine(g, q.rpq, m)
		if err != nil {
			return nil, err
		}
		return &engine{
			Maintained: incgraph.MaintainRPQ(e),
			unitwise:   func(b graph.Batch) error { _, err := e.ApplyUnitwise(b); return err },
		}, nil
	case "iso":
		ix := iso.Build(g, q.iso, m)
		return &engine{
			Maintained: incgraph.MaintainISO(ix),
			unitwise:   func(b graph.Batch) error { _, err := ix.ApplyUnitwise(b); return err },
			estimate:   ix.LastEstimate,
		}, nil
	case "scc":
		s := scc.Build(g, m)
		return &engine{
			Maintained: incgraph.MaintainSCC(s),
			unitwise:   func(b graph.Batch) error { _, err := s.ApplyUnitwise(b); return err },
		}, nil
	}
	return nil, fmt.Errorf("unknown class %q", class)
}

// rival runs the batch algorithm the paper compares class against on g:
// a BLINKS-style rebuild that materializes every match tree, RPQ_NFA,
// Tarjan, VF2 (the rivals of internal/bench).
func (q queries) rival(class string, g *graph.Graph) error {
	switch class {
	case "kws":
		ix, err := kws.Build(g, q.kws, nil)
		if err != nil {
			return err
		}
		for _, r := range ix.MatchRoots() {
			ix.MatchTree(r)
		}
	case "rpq":
		if _, err := rpq.BatchAnswer(g, q.rpq, nil); err != nil {
			return err
		}
	case "iso":
		iso.BatchAnswer(g, q.iso, nil)
	case "scc":
		scc.Components(g)
	}
	return nil
}

// answer is the canonical answer of class on g, computed from scratch.
func (q queries) answer(class string, g *graph.Graph) ([]byte, error) {
	m, err := q.build(class, g.Clone(), nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteAnswer(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// segment is a run of consecutive commits: the batches and, rendered once
// however often they are committed, their stage lines.
type segment struct {
	batches []graph.Batch
	lines   [][]byte
}

func newSegment(parts ...[]graph.Batch) segment {
	var seg segment
	for _, bs := range parts {
		seg.batches = append(seg.batches, bs...)
		for _, b := range bs {
			seg.lines = append(seg.lines, stageLines(b))
		}
	}
	return seg
}

// stream is the generated update sequence of one run. One gen.Updates
// call gives a forward pass S over the seed graph; undoing it (the inverse
// updates in reverse order) brings the graph back to the seed state. A run
// commits whole cycles S, S⁻¹, S, S⁻¹, …: however long it lasts, the graph
// stays near the seed graph (one long sequence churns every edge several
// times over and the standing answers drain to empty), the work is the
// same in every cycle, and every batch of the cycle is timed once per
// cycle, on the same graph each time.
type stream struct {
	// warm is the warm-up (the first batches of S and their undo), cycle
	// is S then S⁻¹, tail is S once more: committed after the checkpoint
	// and replayed by the crash recoveries.
	warm, cycle, tail segment
	// final is seed graph ⊕ S: what the daemon holds when the run ends.
	final *graph.Graph
}

// replay is the warm-up followed by cycles cycles, as one list.
func (s *stream) replay(cycles int) []graph.Batch {
	out := append([]graph.Batch(nil), s.warm.batches...)
	for i := 0; i < cycles; i++ {
		out = append(out, s.cycle.batches...)
	}
	return out
}

func updates(batches []graph.Batch) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}

// undo returns the batches that take back batches: every update inverted,
// in reverse order.
func undo(batches []graph.Batch) []graph.Batch {
	out := make([]graph.Batch, 0, len(batches))
	for i := len(batches) - 1; i >= 0; i-- {
		b := batches[i]
		inv := make(graph.Batch, 0, len(b))
		for j := len(b) - 1; j >= 0; j-- {
			if u := b[j]; u.Op == graph.Insert {
				inv = append(inv, graph.Del(u.From, u.To))
			} else {
				inv = append(inv, graph.Ins(u.From, u.To))
			}
		}
		out = append(out, inv)
	}
	return out
}

// makeStream generates the forward pass (a single gen.Updates call: it
// clones the graph per call) and cuts it into pass batches.
func (w *workload) makeStream(g *graph.Graph, seed int64, pass int) (*stream, error) {
	all := gen.Updates(g, gen.UpdateSpec{Count: pass * w.batch, InsertRatio: 0.5, Locality: 0.8, Seed: seed})
	forward := make([]graph.Batch, pass)
	for i := range forward {
		forward[i] = all[i*w.batch : (i+1)*w.batch]
	}
	edge := forward[:min(w.edge, pass)]
	s := &stream{
		warm:  newSegment(edge, undo(edge)),
		cycle: newSegment(forward, undo(forward)),
		tail:  newSegment(forward),
		final: g.Clone(),
	}
	// Every batch must apply: the warm-up and one cycle on a scratch copy
	// (the later cycles repeat it), the tail on what becomes final.
	check := g.Clone()
	for _, b := range s.replay(1) {
		if err := check.ApplyBatch(b); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
	}
	for _, b := range forward {
		if err := s.final.ApplyBatch(b); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
	}
	return s, nil
}

// stageLines renders a batch as the protocol's stage lines.
func stageLines(b graph.Batch) []byte {
	var buf []byte
	for _, u := range b {
		if u.Op == graph.Insert {
			buf = append(buf, "+ "...)
		} else {
			buf = append(buf, "- "...)
		}
		buf = strconv.AppendInt(buf, int64(u.From), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(u.To), 10)
		buf = append(buf, '\n')
	}
	return buf
}
