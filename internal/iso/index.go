package iso

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// Index is the incrementally maintained match set Q(G) for one pattern,
// with an edge→matches inverted index so deletions are O(#dead matches)
// and insertions are confined to the d_Q-neighborhood of ΔG.
type Index struct {
	g *graph.Graph
	p *Pattern
	// matches maps the canonical key to the match.
	matches map[string]Match
	// byEdge maps a graph edge to the keys of the matches whose pattern
	// edges use it.
	byEdge map[graph.Edge]map[string]struct{}
	// sorted memoizes Matches against the graph mutation generation (the
	// match set only moves in a repair, which follows a graph mutation).
	sorted graph.GenCache[[]Match]
	// lastEst records the repair-vs-batch decision of the most recent
	// Apply (cost-based fallback); see Apply and LastEstimate.
	lastEst cost.Estimate
	meter   *cost.Meter
	// searchers are the repair's VF2 searchers, one per worker, reused.
	searchers []*searcher
}

// Delta describes changes ΔO to Q(G).
type Delta struct {
	Added   []Match
	Removed []Match
}

// Counts returns the numbers of embeddings added and removed; none is
// updated.
func (d Delta) Counts() (added, removed, updated int) { return len(d.Added), len(d.Removed), 0 }

// Len returns |ΔO| in rows.
func (d Delta) Len() int { return len(d.Removed) + len(d.Added) }

// Each calls yield with every removed embedding as gone, then with every
// added one: the index's own match slices, shared.
func (d Delta) Each(yield func(row []graph.NodeID, gone bool)) {
	for _, m := range d.Removed {
		yield(m, true)
	}
	for _, m := range d.Added {
		yield(m, false)
	}
}

// Build enumerates Q(G) with VF2 and indexes it. The meter may be nil.
// With workers available the enumeration fans out across g.Parallelism()
// workers (indexing the collected matches stays serial, in enumeration
// order); sequential builds stream matches straight into the index
// without materializing Q(G) twice.
func Build(g *graph.Graph, p *Pattern, meter *cost.Meter) *Index {
	ix := &Index{
		g:       g,
		p:       p,
		matches: make(map[string]Match),
		byEdge:  make(map[graph.Edge]map[string]struct{}),
		meter:   meter,
	}
	if workers := g.Parallelism(); workers > 1 {
		for _, m := range findAllParallel(g, p, workers, meter) {
			ix.add(m)
		}
		return ix
	}
	Enumerate(g, p, nil, meter, func(m Match) bool {
		ix.add(m)
		return true
	})
	return ix
}

// BatchAnswer recomputes Q(G) from scratch: the VF2 baseline.
func BatchAnswer(g *graph.Graph, p *Pattern, meter *cost.Meter) []Match {
	return FindAll(g, p, 0, meter)
}

func (ix *Index) add(m Match) bool {
	k := m.Key()
	if _, dup := ix.matches[k]; dup {
		return false
	}
	ix.matches[k] = m
	ix.p.EdgeImages(m, func(e graph.Edge) {
		set := ix.byEdge[e]
		if set == nil {
			set = make(map[string]struct{})
			ix.byEdge[e] = set
		}
		set[k] = struct{}{}
	})
	ix.meter.AddEntries(1)
	return true
}

func (ix *Index) remove(k string) (Match, bool) {
	m, ok := ix.matches[k]
	if !ok {
		return nil, false
	}
	delete(ix.matches, k)
	ix.p.EdgeImages(m, func(e graph.Edge) {
		if set := ix.byEdge[e]; set != nil {
			delete(set, k)
			if len(set) == 0 {
				delete(ix.byEdge, e)
			}
		}
	})
	ix.meter.AddEntries(1)
	return m, true
}

// Graph returns the underlying graph: mutated by Apply* when the index
// owns it, by its owner alone when the index is only ever Repair-ed.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Pattern returns the pattern.
func (ix *Index) Pattern() *Pattern { return ix.p }

// Size returns |Q(G)|, the number of embeddings.
func (ix *Index) Size() int { return len(ix.matches) }

// Matches returns Q(G) sorted by canonical key. The slice is memoized
// against the graph's mutation generation — repeated calls between
// updates are O(1) — and shared: treat it as read-only; it is valid
// until the next Apply*.
func (ix *Index) Matches() []Match {
	return ix.sorted.Get(ix.g, func() []Match {
		keys := make([]string, 0, len(ix.matches))
		for k := range ix.matches {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]Match, len(keys))
		for i, k := range keys {
			out[i] = ix.matches[k]
		}
		return out
	})
}

// Rows returns Q(G) as rows, one embedding each aligned with
// Pattern.Nodes(), in canonical-key order: the order and, through
// AppendRow, the bytes of WriteAnswer.
func (ix *Index) Rows() graph.Rows {
	ms := ix.Matches()
	width := len(ix.p.nodes)
	flat := make([]graph.NodeID, 0, len(ms)*width)
	for _, m := range ms {
		flat = append(flat, m...)
	}
	return graph.FlatRows(width, flat)
}

// CompareRows orders embeddings as their Match.Key() strings order — node
// by node, each as its decimal text: a separator sorts below every digit
// and sign, so the joined keys and the texts in turn compare alike.
func (ix *Index) CompareRows(a, b []graph.NodeID) int {
	var ba, bb [20]byte
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		return bytes.Compare(strconv.AppendInt(ba[:0], int64(a[i]), 10), strconv.AppendInt(bb[:0], int64(b[i]), 10))
	}
	return 0
}

// AppendRow appends the answer line of row: "match <v1> <v2> …".
func (ix *Index) AppendRow(dst []byte, row []graph.NodeID) []byte {
	return graph.AppendRow(dst, "match", row)
}

// WriteAnswer serializes Q(G) in canonical text form, one AppendRow line
// per embedding, in canonical-key order. Identical match sets produce
// identical bytes regardless of the path that computed them (build,
// incremental repair, batch fallback, or recovery replay); the durability
// layer's parity checks rely on this.
func (ix *Index) WriteAnswer(w io.Writer) error { return graph.WriteRows(w, ix.Rows(), ix.AppendRow) }

// Apply processes a batch ΔG with IncISO on an index that owns its graph:
// it advances the graph to G ⊕ ΔG (graph.Advance: the batch is normalized,
// and a batch that cannot be applied is rejected before anything is
// touched) and then repairs.
func (ix *Index) Apply(batch graph.Batch) (Delta, error) {
	norm, err := ix.g.Advance(batch)
	if err != nil {
		return Delta{}, fmt.Errorf("iso: %w", err)
	}
	return ix.Repair(batch, norm), nil
}

// Repair brings the match set from Q(G) to Q(G ⊕ ΔG) and returns ΔO:
// deletions drop exactly the indexed matches that use a deleted edge;
// insertions run VF2 restricted to the d_Q-neighborhood G_dQ(ΔG+) and add
// the matches not seen before. It assumes the graph was G when the index
// last returned and has just been moved to G ⊕ ΔG by whoever owns it —
// Apply, or a store that keeps one graph under several engines — with
// norm the normal form (Batch.Normalize) of a batch valid on G. It reads
// the post-state graph and mutates nothing but the index, which knows the
// graph by its edges only: the nodes a batch creates need no bookkeeping
// here, so the raw batch goes unread.
//
// Before repairing, Repair consults the cost model (cost.EstimateISO): when
// the batch seeds more anchored enumerations than VF2 would open
// root-candidate subtrees — the regime where IncISO loses to VF2 at batch
// granularity — it falls back to re-enumerating Q(G) from scratch and
// diffing the match sets. The decision is a pure function of graph and
// batch statistics, so it is identical at every worker and shard count.
func (ix *Index) Repair(_, norm graph.Batch) Delta {
	var d Delta
	ins, dels := norm.Split()
	rootCands := ix.g.NumNodesWithLabelID(ix.p.lbl[ix.p.order[0]])
	// Count the anchored enumerations the incremental path would seed: one
	// per label-compatible pattern edge per insertion (anchoredMatches).
	// The count is skipped on the tiny-batch hot path, which the
	// estimator's floor always routes incremental.
	anchors := 0
	if len(norm) >= cost.FallbackMinBatch {
		for _, u := range ins {
			lf, lt := ix.g.LabelIDAt(u.From), ix.g.LabelIDAt(u.To)
			for k := range ix.p.edges {
				if ix.p.edges[k].anchors(u, lf, lt) {
					anchors++
				}
			}
		}
	}
	ix.lastEst = cost.EstimateISO(len(ins), len(dels), rootCands, anchors)
	// A pattern without edges is one node, and its Q(G) a label class that
	// only the nodes a batch created can grow: no anchor finds those, so
	// re-enumerate when the class outgrew the match set.
	if ix.lastEst.PreferBatch() || len(ix.p.edges) == 0 && rootCands != len(ix.matches) {
		return ix.rebuildDiff()
	}
	// (1) Deletions: remove dead matches via the inverted index (which
	// references edge identities only, so it reads the same either side of
	// the mutation).
	for _, u := range dels {
		e := graph.Edge{From: u.From, To: u.To}
		for k := range ix.byEdge[e] {
			if m, ok := ix.remove(k); ok {
				d.Removed = append(d.Removed, m)
			}
		}
	}
	// (2)+(3) Insertions: delta-enumerate on the post-update graph. Every
	// match not in the old Q(G) must use at least one inserted edge, so
	// anchoring each pattern edge on each inserted edge enumerates exactly
	// the new matches — all of them inside the d_Q-neighborhood of ΔG+,
	// which is what keeps IncISO localizable. The per-edge anchored
	// enumerations are pure reads of the post-update graph, so they fan
	// out across workers; indexing (with its cross-anchor dedup) stays
	// serial, in insertion order, matching the sequential result exactly.
	workers := ix.g.Parallelism()
	if len(ins) > 0 {
		found := make([][]Match, len(ins))
		meters := make([]cost.Meter, workers)
		for len(ix.searchers) < workers {
			ix.searchers = append(ix.searchers, newSearcher(ix.g, ix.p, nil))
		}
		graph.ParallelFor(workers, len(ins), func(worker, i int) {
			s := ix.searchers[worker]
			s.meter = &meters[worker]
			found[i] = ix.anchoredMatches(s, ins[i])
		})
		for i := range meters {
			ix.meter.Merge(&meters[i])
		}
		for _, ms := range found {
			for _, m := range ms {
				if ix.add(m) {
					d.Added = append(d.Added, m)
				}
			}
		}
	}
	sortMatches(d.Added)
	sortMatches(d.Removed)
	return d
}

// rebuildDiff is the batch-fallback path of Repair: with ΔG already
// applied, re-enumerate Q(G) from scratch (the VF2 baseline, parallel
// when workers are available), rebuild the inverted index, and derive the
// Delta by diffing old and new match sets by canonical key — the exact
// output change, same as the incremental path.
func (ix *Index) rebuildDiff() Delta {
	old := ix.matches
	ix.matches = make(map[string]Match, len(old))
	ix.byEdge = make(map[graph.Edge]map[string]struct{}, len(ix.byEdge))
	if workers := ix.g.Parallelism(); workers > 1 {
		for _, m := range findAllParallel(ix.g, ix.p, workers, ix.meter) {
			ix.add(m)
		}
	} else {
		Enumerate(ix.g, ix.p, nil, ix.meter, func(m Match) bool {
			ix.add(m)
			return true
		})
	}
	var d Delta
	for k, m := range ix.matches {
		if _, was := old[k]; !was {
			d.Added = append(d.Added, m)
		}
	}
	for k, m := range old {
		if _, is := ix.matches[k]; !is {
			d.Removed = append(d.Removed, m)
		}
	}
	sortMatches(d.Added)
	sortMatches(d.Removed)
	return d
}

// LastEstimate returns the cost-model verdict of the most recent repair:
// the predicted |AFF| and the repair-vs-batch costs. Benchmarks and tests
// use it to observe routing.
func (ix *Index) LastEstimate() cost.Estimate { return ix.lastEst }

// anchoredMatches enumerates, on searcher s, the matches created by
// inserted edge u by pinning every label-compatible pattern edge onto it:
// From first, then To. Read-only (the same match may surface from several
// anchors; the caller dedups via add), so insertions enumerate concurrently
// on one searcher per worker.
func (ix *Index) anchoredMatches(s *searcher, u graph.Update) []Match {
	lf, lt := ix.g.LabelIDAt(u.From), ix.g.LabelIDAt(u.To)
	for k := range ix.p.edges {
		pe := &ix.p.edges[k]
		if !pe.anchors(u, lf, lt) {
			continue
		}
		s.order = pe.order
		if s.install(pe.from, u.From) {
			if pe.from == pe.to {
				s.extend(1)
			} else if s.install(pe.to, u.To) {
				s.extend(2)
			}
		}
		clear(s.mapped)
	}
	out := s.out
	s.out = nil
	return out
}

// ApplyUnitwise is IncISOn, the baseline of the paper's experiments: each
// unit update is processed alone, and each insertion pays a full VF2 pass
// over the d_Q-neighborhood of its edge (rather than IncISO's anchored
// delta enumeration).
func (ix *Index) ApplyUnitwise(batch graph.Batch) (Delta, error) {
	var total Delta
	for _, u := range batch {
		if u.Op == graph.Insert {
			ix.g.EnsureNode(u.From, u.FromLabel)
			ix.g.EnsureNode(u.To, u.ToLabel)
			if ix.g.HasEdge(u.From, u.To) {
				return Delta{}, fmt.Errorf("iso: %w: insert of existing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
			}
			ix.g.AddEdge(u.From, u.To)
			scope := make(map[graph.NodeID]bool)
			ix.g.ForEachWithin([]graph.NodeID{u.From, u.To}, ix.p.Diameter(), func(v graph.NodeID, _ int) bool {
				scope[v] = true
				return true
			})
			ix.meter.AddNodes(len(scope))
			Enumerate(ix.g, ix.p, scope, ix.meter, func(m Match) bool {
				if ix.add(m) {
					total.Added = append(total.Added, m)
				}
				return true
			})
			continue
		}
		if !ix.g.DeleteEdge(u.From, u.To) {
			return Delta{}, fmt.Errorf("iso: %w: delete of missing edge (%d,%d)", graph.ErrBadUpdate, u.From, u.To)
		}
		e := graph.Edge{From: u.From, To: u.To}
		for k := range ix.byEdge[e] {
			if m, ok := ix.remove(k); ok {
				total.Removed = append(total.Removed, m)
			}
		}
	}
	total = total.compact()
	return total, nil
}

// compact cancels add/remove pairs of the same match accumulated across
// unit steps.
func (d Delta) compact() Delta {
	state := make(map[string]int)
	byKey := make(map[string]Match)
	for _, m := range d.Added {
		state[m.Key()]++
		byKey[m.Key()] = m
	}
	for _, m := range d.Removed {
		state[m.Key()]--
		byKey[m.Key()] = m
	}
	var out Delta
	for k, n := range state {
		switch {
		case n > 0:
			out.Added = append(out.Added, byKey[k])
		case n < 0:
			out.Removed = append(out.Removed, byKey[k])
		}
	}
	sortMatches(out.Added)
	sortMatches(out.Removed)
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key() < ms[j].Key() })
}

// Check audits the index against a fresh VF2 run: identical match sets and
// a consistent inverted index.
func (ix *Index) Check() error {
	truth := BatchAnswer(ix.g, ix.p, nil)
	if len(truth) != len(ix.matches) {
		return fmt.Errorf("iso: %d matches, batch recompute has %d", len(ix.matches), len(truth))
	}
	for _, m := range truth {
		if _, ok := ix.matches[m.Key()]; !ok {
			return fmt.Errorf("iso: missing match %v", m)
		}
		if err := ix.p.Verify(ix.g, m); err != nil {
			return err
		}
	}
	// Inverted index must cover exactly the pattern-edge images.
	count := 0
	for e, set := range ix.byEdge {
		if !ix.g.HasEdge(e.From, e.To) {
			return fmt.Errorf("iso: index references missing edge %v", e)
		}
		count += len(set)
		for k := range set {
			if _, ok := ix.matches[k]; !ok {
				return fmt.Errorf("iso: index references dead match %s", k)
			}
		}
	}
	want := 0
	for _, m := range ix.matches {
		seen := make(map[graph.Edge]bool)
		ix.p.EdgeImages(m, func(e graph.Edge) {
			if !seen[e] {
				seen[e] = true
				want++
			}
		})
	}
	if count != want {
		return fmt.Errorf("iso: inverted index has %d entries, want %d", count, want)
	}
	return nil
}
