// Package kws implements keyword search with distinct roots (KWS, Section
// 2.1 of Fan, Hu & Tian, SIGMOD 2017) and its localizable incremental
// algorithms (Section 4.2): IncKWS+ for unit insertions (Fig. 1), IncKWS−
// for unit deletions (Fig. 3), and the three-phase IncKWS for batch updates.
//
// A query Q = (k1,…,km) with bound b matches at root r when, for every
// keyword ki, some node labeled ki is within b directed hops of r; the
// match is the tree of the m shortest paths (hop metric), with ties broken
// by a predefined order. The auxiliary structure is the keyword-distance
// list kdist(v): per node and keyword, the shortest distance and the next
// node on the chosen shortest path. The batch builder plays the role of
// BLINKS [27]: any batch KWS algorithm "maintains something like kdist(·)".
//
// Distances are maintained only up to the bound b; anything farther is
// recorded as Unreachable, which is what makes every operation local to the
// b-neighborhood of the update (localizability, Theorem 3).
//
// # Layout
//
// The index numbers the graph's nodes densely (ids/idx: ascending NodeID at
// build, nodes a batch creates appended; deliberately not the graph's slot,
// which resharding moves), and kdist is one flat []Entry with m entries per
// dense node: kdist[x·m+i] is kdist(ids[x])[ki]. A traversal reads a node's
// neighbours from PredecessorsSorted/SuccessorsSorted — ascending NodeID,
// which is also the predefined tie-break order — and translates each once
// (graph.NodeIndex: an array lookup for IDs issued from zero).
//
// Each keyword owns a scratch (scratch.go), allocated once and reused by
// every repair: epoch-stamped affected and touched marks, the touched list,
// and a monotone bucket queue over distances 0…b in place of an indexed
// heap. Keyword i writes only column i of kdist and its own scratch, so the
// keywords repair concurrently. The match set is a map from root to
// distance vector that no keyword pass writes: ΔO is diffed from the
// touched rows against it afterwards, so no pre-state is copied.
package kws

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// Unreachable is the kdist sentinel for "no node matching the keyword
// within bound b".
const Unreachable = int(1) << 30

// NoNext marks the absence of a next pointer (dist 0 or Unreachable).
const NoNext = graph.NodeID(-1)

// Query is a keyword query (k1,…,km) with distance bound b.
type Query struct {
	Keywords []string
	Bound    int
}

// Validate checks the query is well formed.
func (q Query) Validate() error {
	if len(q.Keywords) == 0 {
		return fmt.Errorf("kws: query needs at least one keyword")
	}
	if q.Bound < 0 {
		return fmt.Errorf("kws: negative bound %d", q.Bound)
	}
	seen := make(map[string]bool, len(q.Keywords))
	for _, k := range q.Keywords {
		if k == "" {
			return fmt.Errorf("kws: empty keyword")
		}
		if seen[k] {
			return fmt.Errorf("kws: duplicate keyword %q", k)
		}
		seen[k] = true
	}
	return nil
}

// Entry is one kdist(v)[ki] record: (dist, next).
type Entry struct {
	Dist int
	Next graph.NodeID
}

var unreachable = Entry{Dist: Unreachable, Next: NoNext}

// Match is a query answer rooted at Root; Dists[i] is the shortest distance
// from Root to a node labeled Keywords[i] (all ≤ Bound).
type Match struct {
	Root  graph.NodeID
	Dists []int
}

// Index is the incrementally-maintained state: the graph, the kdist lists,
// and the current match set Q(G).
type Index struct {
	g *graph.Graph
	q Query
	// kwIDs holds the interned form of q.Keywords.
	kwIDs []graph.LabelID
	// ids and idx are the dense node index: ids[x] is the x-th node, idx
	// its inverse.
	ids []graph.NodeID
	idx graph.NodeIndex
	// kdist[x*m+i] is kdist(ids[x])[i], m = len(q.Keywords).
	kdist []Entry
	// matches maps each match root to its per-keyword distance vector.
	matches map[graph.NodeID][]int
	// roots memoizes MatchRoots against the graph mutation generation:
	// the match set only moves in a repair, which always follows a
	// mutation of the graph, so a matching stamp proves the sorted view
	// is current.
	roots graph.GenCache[[]graph.NodeID]
	// lastEst records the repair-vs-batch decision of the most recent
	// Apply (cost-based fallback); see Apply and LastEstimate.
	lastEst cost.Estimate
	meter   *cost.Meter
	// kw[i] is keyword i's scratch. rows lists, deduplicated by rowMarks,
	// the rows of the repair under way that ΔO is diffed from: the nodes it
	// created and the rows every keyword touched.
	kw       []*scratch
	rows     []int32
	rowMarks marks
}

// Build runs the batch algorithm: for each keyword a bounded multi-source
// reverse BFS from the keyword's nodes, producing kdist(·) and Q(G).
// The meter may be nil.
//
// The per-keyword BFS fan-outs are independent — keyword i only ever
// writes column i of kdist — so they run through graph.ParallelFor, up to
// g.Parallelism() wide. The result is identical to a sequential build.
func Build(g *graph.Graph, q Query, meter *cost.Meter) (*Index, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return build(g, q, meter), nil
}

// build is Build for a query already validated.
func build(g *graph.Graph, q Query, meter *cost.Meter) *Index {
	m := len(q.Keywords)
	ix := &Index{
		g:       g,
		q:       q,
		kwIDs:   make([]graph.LabelID, m),
		matches: make(map[graph.NodeID][]int),
		meter:   meter,
		kw:      make([]*scratch, m),
	}
	for i, kw := range q.Keywords {
		ix.kwIDs[i] = graph.InternLabel(kw)
		ix.kw[i] = &scratch{}
	}
	workers := g.Parallelism()
	ix.ids = g.NodesSortedParallel()
	ix.idx = graph.IndexNodes(ix.ids)
	ix.kdist = make([]Entry, len(ix.ids)*m)
	for j := range ix.kdist {
		ix.kdist[j] = unreachable
	}
	graph.ParallelFor(workers, m, func(_, i int) { ix.buildKeyword(i) })
	for _, s := range ix.kw {
		meter.Merge(&s.meter)
		s.meter.Reset()
	}
	for x, v := range ix.ids {
		if row := ix.row(int32(x)); ix.isMatch(row) {
			ix.matches[v] = dists(row)
		}
	}
	return ix
}

// row returns kdist(ids[x]), m entries.
func (ix *Index) row(x int32) []Entry {
	m := len(ix.kw)
	return ix.kdist[int(x)*m : int(x)*m+m]
}

// at returns kdist(ids[x])[i].
func (ix *Index) at(x int32, i int) *Entry { return &ix.kdist[int(x)*len(ix.kw)+i] }

// buildKeyword fills column i of kdist by reverse BFS from all nodes
// labeled the keyword, bounded by q.Bound. It runs concurrently with other
// keywords: it writes column i and keyword i's scratch only.
func (ix *Index) buildKeyword(i int) {
	s, b := ix.kw[i], ix.q.Bound
	queue := s.fifo[:0]
	ix.g.NodesWithLabelID(ix.kwIDs[i], func(v graph.NodeID) bool {
		x := ix.idx.Of(v)
		*ix.at(x, i) = Entry{Dist: 0, Next: NoNext}
		queue = append(queue, x)
		return true
	})
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		s.meter.AddNodes(1)
		d := ix.at(x, i).Dist
		if d == b {
			continue
		}
		v := ix.ids[x]
		for _, u := range ix.g.PredecessorsSorted(v) {
			s.meter.AddEdges(1)
			iu := ix.idx.Of(u)
			if e := ix.at(iu, i); d+1 < e.Dist {
				*e = Entry{Dist: d + 1, Next: v}
				s.meter.AddEntries(1)
				queue = append(queue, iu)
			}
		}
	}
	s.fifo = queue
}

// isMatch reports whether a kdist row makes its node a match root.
func (ix *Index) isMatch(row []Entry) bool {
	for _, e := range row {
		if e.Dist > ix.q.Bound {
			return false
		}
	}
	return true
}

// dists returns the distance vector of a row.
func dists(row []Entry) []int {
	ds := make([]int, len(row))
	for i, e := range row {
		ds[i] = e.Dist
	}
	return ds
}

// ensureRow gives a node the batch created a fresh kdist row — dist 0 for
// the keywords equal to its label, Unreachable otherwise — and lists it
// among the rows ΔO is diffed from.
func (ix *Index) ensureRow(v graph.NodeID) {
	if _, ok := ix.idx.Get(v); ok {
		return
	}
	x := int32(len(ix.ids))
	ix.idx.Add(v, x)
	ix.ids = append(ix.ids, v)
	lbl := ix.g.LabelIDAt(v)
	for _, kw := range ix.kwIDs {
		if lbl == kw {
			ix.kdist = append(ix.kdist, Entry{Dist: 0, Next: NoNext})
		} else {
			ix.kdist = append(ix.kdist, unreachable)
		}
	}
	ix.touchRow(x)
}

// Graph returns the underlying graph: mutated by Apply* when the index
// owns it, by its owner alone when the index is only ever Repair-ed.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Query returns the query the index answers.
func (ix *Index) Query() Query { return ix.q }

// Entry returns kdist(v)[i].
func (ix *Index) Entry(v graph.NodeID, i int) Entry {
	x, ok := ix.idx.Get(v)
	if !ok {
		return unreachable
	}
	return *ix.at(x, i)
}

// MatchRoots returns the roots of Q(G) in ascending order. The slice is
// memoized against the graph's mutation generation — repeated calls
// between updates are O(1) — and shared: treat it as read-only; it is
// valid until the next Apply*.
func (ix *Index) MatchRoots() []graph.NodeID {
	return ix.roots.Get(ix.g, func() []graph.NodeID {
		roots := make([]graph.NodeID, 0, len(ix.matches))
		for r := range ix.matches {
			roots = append(roots, r)
		}
		slices.Sort(roots)
		return roots
	})
}

// MatchAt returns the match rooted at r, or false if r is not a root.
func (ix *Index) MatchAt(r graph.NodeID) (Match, bool) {
	ds, ok := ix.matches[r]
	if !ok {
		return Match{}, false
	}
	return Match{Root: r, Dists: slices.Clone(ds)}, true
}

// NumMatches returns |Q(G)|.
func (ix *Index) NumMatches() int { return len(ix.matches) }

// WriteAnswer serializes Q(G) in canonical text form: one line per match
// root, ascending, "root <id> <d1> <d2> ...". Identical answers always
// produce identical bytes, whatever worker, shard or recovery path built
// them — the durability layer's recovery-parity checks and the incgraphd
// answer dumps both rely on this. Safe under the read-share contract.
func (ix *Index) WriteAnswer(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range ix.MatchRoots() {
		bw.WriteString("root ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(r), 10))
		for _, d := range ix.matches[r] {
			bw.WriteByte(' ')
			bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(d), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}

// Snapshot returns a copy of the match set, root → dist vector. Tests and
// the public Delta computation use it.
func (ix *Index) Snapshot() map[graph.NodeID][]int {
	out := make(map[graph.NodeID][]int, len(ix.matches))
	for r, ds := range ix.matches {
		out[r] = slices.Clone(ds)
	}
	return out
}

// BatchAnswer computes Q(G) from scratch without retaining an index: the
// batch baseline the experiments compare against.
func BatchAnswer(g *graph.Graph, q Query, meter *cost.Meter) (map[graph.NodeID][]int, error) {
	ix, err := Build(g, q, meter)
	if err != nil {
		return nil, err
	}
	return ix.matches, nil
}
