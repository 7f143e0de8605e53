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
package kws

import (
	"bufio"
	"fmt"
	"io"
	"sort"
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

// Match is a query answer rooted at Root; Dists[i] is the shortest distance
// from Root to a node labeled Keywords[i] (all ≤ Bound).
type Match struct {
	Root  graph.NodeID
	Dists []int
}

// Index is the incrementally-maintained state: the graph, the kdist lists,
// and the current match set Q(G).
type Index struct {
	g     *graph.Graph
	q     Query
	kdist map[graph.NodeID][]Entry
	// kwIDs holds the interned form of q.Keywords: the per-node label
	// checks in freshEntries compare uint32 IDs instead of strings.
	kwIDs []graph.LabelID
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
}

// Build runs the batch algorithm: for each keyword a bounded multi-source
// reverse BFS from the keyword's nodes, producing kdist(·) and Q(G).
// The meter may be nil.
//
// The per-keyword BFS fan-outs are independent — keyword i only ever
// writes column i of the kdist rows — so they run through
// graph.ParallelFor, up to g.Parallelism() wide, as do the row-allocation
// and match-detection sweeps (their map installs stay serial). The result
// is identical to a sequential build.
func Build(g *graph.Graph, q Query, meter *cost.Meter) (*Index, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return build(g, q, meter), nil
}

// build is Build for a query already validated.
func build(g *graph.Graph, q Query, meter *cost.Meter) *Index {
	ix := &Index{
		g:       g,
		q:       q,
		kdist:   make(map[graph.NodeID][]Entry, g.NumNodes()),
		kwIDs:   make([]graph.LabelID, len(q.Keywords)),
		matches: make(map[graph.NodeID][]int),
		meter:   meter,
	}
	for i, kw := range q.Keywords {
		ix.kwIDs[i] = graph.InternLabel(kw)
	}
	workers := g.Parallelism()
	if workers > 1 {
		g.PrepareConcurrentReads()
	}
	// Dense node list once; the parallel sweeps index into it. With shards
	// and workers available the collection fans out per shard (order is
	// irrelevant — every row lands in a map — so it skips sorting);
	// otherwise a single append loop, as before sharding.
	nodes := make([]graph.NodeID, 0, g.NumNodes())
	if p := g.NumShards(); p > 1 && workers > 1 {
		shardRuns := make([][]graph.NodeID, p)
		graph.ParallelFor(workers, p, func(_, s int) {
			run := make([]graph.NodeID, 0, g.NumShardNodes(s))
			g.ShardNodes(s, func(v graph.NodeID, _ graph.LabelID) bool {
				run = append(run, v)
				return true
			})
			shardRuns[s] = run
		})
		for _, run := range shardRuns {
			nodes = append(nodes, run...)
		}
	} else {
		g.Nodes(func(v graph.NodeID, _ string) bool {
			nodes = append(nodes, v)
			return true
		})
	}
	rows := make([][]Entry, len(nodes))
	graph.ParallelFor(workers, len(nodes), func(_, j int) {
		rows[j] = ix.freshEntries(nodes[j])
	})
	for j, v := range nodes {
		ix.kdist[v] = rows[j]
	}
	meters := make([]cost.Meter, len(q.Keywords))
	graph.ParallelFor(workers, len(q.Keywords), func(_, i int) {
		ix.buildKeyword(i, &meters[i])
	})
	for i := range meters {
		meter.Merge(&meters[i])
	}
	matchRows := make([][]int, len(nodes))
	graph.ParallelFor(workers, len(nodes), func(_, j int) {
		matchRows[j] = ix.matchRow(nodes[j])
	})
	for j, v := range nodes {
		if matchRows[j] != nil {
			ix.matches[v] = matchRows[j]
		}
	}
	return ix
}

// freshEntries returns the initial kdist row of node v: dist 0 for keywords
// equal to l(v), Unreachable otherwise.
func (ix *Index) freshEntries(v graph.NodeID) []Entry {
	row := make([]Entry, len(ix.q.Keywords))
	lbl := ix.g.LabelIDAt(v)
	for i, kw := range ix.kwIDs {
		if lbl == kw {
			row[i] = Entry{Dist: 0, Next: NoNext}
		} else {
			row[i] = Entry{Dist: Unreachable, Next: NoNext}
		}
	}
	return row
}

// buildKeyword fills kdist(·)[i] by reverse BFS from all nodes labeled the
// keyword, bounded by q.Bound. It runs concurrently with other keywords:
// the meter is the caller's private accumulator, and every write lands in
// column i only.
func (ix *Index) buildKeyword(i int, meter *cost.Meter) {
	type item struct {
		v graph.NodeID
		d int
	}
	var queue []item
	ix.g.NodesWithLabelID(ix.kwIDs[i], func(v graph.NodeID) bool {
		queue = append(queue, item{v, 0})
		return true
	})
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		meter.AddNodes(1)
		if it.d == ix.q.Bound {
			continue
		}
		ix.g.Predecessors(it.v, func(u graph.NodeID) bool {
			meter.AddEdges(1)
			row := ix.kdist[u]
			if it.d+1 < row[i].Dist {
				row[i] = Entry{Dist: it.d + 1, Next: it.v}
				meter.AddEntries(1)
				queue = append(queue, item{u, it.d + 1})
			}
			return true
		})
	}
}

// matchRow returns v's per-keyword distance vector when v is a match root,
// nil otherwise. Read-only: safe to call concurrently between mutations.
func (ix *Index) matchRow(v graph.NodeID) []int {
	row, ok := ix.kdist[v]
	if !ok {
		return nil
	}
	for _, e := range row {
		if e.Dist > ix.q.Bound {
			return nil
		}
	}
	ds := make([]int, len(row))
	for i, e := range row {
		ds[i] = e.Dist
	}
	return ds
}

// refreshMatch recomputes whether v is a match root, updating the match set.
func (ix *Index) refreshMatch(v graph.NodeID) {
	if ds := ix.matchRow(v); ds != nil {
		ix.matches[v] = ds
	} else {
		delete(ix.matches, v)
	}
}

// Graph returns the underlying graph: mutated by Apply* when the index
// owns it, by its owner alone when the index is only ever Repair-ed.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Query returns the query the index answers.
func (ix *Index) Query() Query { return ix.q }

// Entry returns kdist(v)[i].
func (ix *Index) Entry(v graph.NodeID, i int) Entry {
	row, ok := ix.kdist[v]
	if !ok {
		return Entry{Dist: Unreachable, Next: NoNext}
	}
	return row[i]
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
		sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
		return roots
	})
}

// MatchAt returns the match rooted at r, or false if r is not a root.
func (ix *Index) MatchAt(r graph.NodeID) (Match, bool) {
	ds, ok := ix.matches[r]
	if !ok {
		return Match{}, false
	}
	out := make([]int, len(ds))
	copy(out, ds)
	return Match{Root: r, Dists: out}, true
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
		cp := make([]int, len(ds))
		copy(cp, ds)
		out[r] = cp
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
