// Package graph provides the directed, node-labeled graph substrate used by
// every query class in this library.
//
// Graphs follow the model of Fan, Hu and Tian, "Incremental Graph
// Computations: Doable and Undoable" (SIGMOD 2017), Section 2: a graph
// G = (V, E, l) has a finite node set V, an edge set E ⊆ V × V, and a label
// l(v) on every node. Edges are unlabeled; all query semantics (RPQ strings,
// KWS keywords, ISO label equality) read node labels.
//
// The representation is performance-oriented; four design decisions carry
// it (see also doc.go at the module root):
//
//   - Interned labels. Label strings are interned process-wide into dense
//     LabelIDs (intern.go); a node stores its uint32 LabelID, and every
//     graph maintains an inverted label→sorted-nodes index, so
//     NodesWithLabel is an index lookup rather than an O(|V|) scan and hot
//     loops compare uint32s instead of strings. Invariant: every mutation
//     that changes l(v) — an AddNode relabel — must update the inverted
//     index in the same step.
//
//   - One node table, sharded by slot. Node records live in one
//     slot-indexed table and a NodeIndex maps NodeID → slot (shard.go), so
//     a lookup is an array read for dense IDs. Nodes hash into a
//     power-of-two number of shards; shard s owns the slots ≡ s (mod P),
//     and cross-shard edges are recorded on both endpoint shards. The
//     partition is what the snapshot format, the per-shard node
//     collection of the batch builds and the multi-process runtime are
//     cut along: a validated batch compiles into per-shard effects
//     (PlanBatch, effects.go) that shard workers in other processes apply
//     independently, reproducing the graph a serial ApplyBatch builds.
//     In-process, ApplyBatch is that serial loop (update.go says why).
//
//   - Sorted-slice adjacency. Out-adjacency, in-adjacency and every label
//     class of the inverted index are one ascending []NodeID each
//     (adjset.go), at every degree. Degrees are bounded in practice, so a
//     unit update is an O(degree) ≈ O(1) insertion, iteration is a
//     cache-friendly linear scan in NodeID order, and SuccessorsSorted
//     returns the storage itself.
//
//   - Dense slots + scratch. A node's slot, issued at insertion
//     (interleaved across shards), is both its place in the node table
//     and its index into the traversal kernels' epoch-stamped visited
//     array (traverse.go), which with pooled queues (scratch.go) stands in
//     for a map[NodeID]bool per call.
//
// Concurrency contract (parallel.go): mutations require exclusive access,
// and between mutations the graph is read-shareable: any number of
// goroutines may read and traverse it concurrently, with no preparation
// step, because no read writes anything back. The parallel
// engines in kws, rpq and iso are built on exactly this split; their loops
// fan out through ParallelFor, whose caller always takes part and never
// waits for a helper that arrived too late to find work.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node. IDs are arbitrary; they need not be dense.
type NodeID int64

// Edge is a directed edge from From to To.
type Edge struct {
	From, To NodeID
}

// node is the record at a node's slot in the node table; live is false
// in a slot no node holds.
type node struct {
	id    NodeID
	label LabelID
	live  bool
	out   adjSet
	in    adjSet
}

// Graph is a directed graph with string-labeled nodes.
// The zero value is not usable; call New.
type Graph struct {
	// nodes is the node table: nodes[i] is the record of the node at
	// slot i. index maps a NodeID to its slot (shard.go).
	nodes    []node
	index    NodeIndex
	numNodes int
	// loadMu serializes the placements of concurrent LoadShard calls.
	loadMu sync.Mutex
	// shards partition the node space by a hash of the NodeID (shard.go);
	// the count is a power of two, fixed between SetShards calls.
	shards []shard
	// shardShift maps the node hash to a shard index (64 - log2(len(shards))).
	shardShift uint
	// byLabel is the inverted label index: every node appears in the set
	// of its current label, and nowhere else. Graph-global: shard workers
	// applying planned effects (effects.go) never touch it.
	byLabel map[LabelID]*adjSet
	edges   int
	// gen counts mutations; generation-stamped answer caches (GenCache)
	// compare against it to reuse derived results between updates.
	gen uint64
	// primaryScratch and scratchPool form the worker-keyed traversal
	// scratch pool (scratch.go); concurrent and nested traversals each
	// check out their own buffer.
	primaryScratch atomic.Pointer[scratch]
	scratchPool    sync.Pool
	// workers is the SetParallelism budget; 0 means runtime.GOMAXPROCS(0).
	workers int
	// edgesSorted memoizes EdgesSorted between mutations.
	edgesSorted GenCache[[]Edge]
}

// New returns an empty graph with the default shard count (the smallest
// power of two covering runtime.GOMAXPROCS(0)).
func New() *Graph { return NewSharded(0) }

// NewSharded returns an empty graph partitioned into n shards (rounded up
// to a power of two and clamped to [1, MaxShards]; n <= 0 selects the
// default, matching Parallelism()).
func NewSharded(n int) *Graph {
	p := normalizeShards(n)
	return &Graph{
		shards:     make([]shard, p),
		shardShift: shardShiftFor(p),
		byLabel:    make(map[LabelID]*adjSet),
	}
}

// Generation returns the mutation generation: it changes whenever the
// graph changes (nodes, labels, edges). A reshard moves no node, label or
// edge, and no cached value is slot-indexed, so it leaves the generation
// as it was. Derived-answer caches stamp their results with it; see
// GenCache.
func (g *Graph) Generation() uint64 { return g.gen }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edges }

// HasNode reports whether v exists.
func (g *Graph) HasNode(v NodeID) bool {
	return g.rec(v) != nil
}

// Label returns the label of v, or "" if v does not exist.
func (g *Graph) Label(v NodeID) string {
	rec := g.rec(v)
	if rec == nil {
		return ""
	}
	return LabelOf(rec.label)
}

// LabelIDAt returns the interned label of v, or NoLabel if v does not
// exist. Hot loops compare the result against interned query labels
// instead of strings.
func (g *Graph) LabelIDAt(v NodeID) LabelID {
	rec := g.rec(v)
	if rec == nil {
		return NoLabel
	}
	return rec.label
}

// labelIndexAdd inserts v into the inverted index under lid.
func (g *Graph) labelIndexAdd(lid LabelID, v NodeID) {
	set := g.byLabel[lid]
	if set == nil {
		set = &adjSet{}
		g.byLabel[lid] = set
	}
	set.add(v)
}

// labelIndexRemove removes v from the inverted index under lid.
func (g *Graph) labelIndexRemove(lid LabelID, v NodeID) {
	if set := g.byLabel[lid]; set != nil {
		set.remove(v)
		if len(*set) == 0 {
			delete(g.byLabel, lid)
		}
	}
}

// AddNode inserts node v with the given label. Adding an existing node
// relabels it (updating the inverted label index).
func (g *Graph) AddNode(v NodeID, label string) {
	g.addNodeID(v, InternLabel(label))
}

// addNodeID is AddNode for an already-interned label.
func (g *Graph) addNodeID(v NodeID, lid LabelID) {
	if rec := g.rec(v); rec != nil {
		if rec.label != lid {
			g.labelIndexRemove(rec.label, v)
			rec.label = lid
			g.labelIndexAdd(lid, v)
			g.gen++
		}
		return
	}
	g.place(node{id: v, label: lid})
	g.labelIndexAdd(lid, v)
	g.gen++
}

// EnsureNode inserts v with label only if v does not already exist, and
// reports whether it was inserted.
func (g *Graph) EnsureNode(v NodeID, label string) bool {
	if g.HasNode(v) {
		return false
	}
	g.AddNode(v, label)
	return true
}

// HasEdge reports whether edge (v, w) exists.
func (g *Graph) HasEdge(v, w NodeID) bool {
	rec := g.rec(v)
	return rec != nil && rec.out.has(w)
}

// AddEdge inserts edge (v, w). Both endpoints must exist. It reports whether
// the edge was new.
func (g *Graph) AddEdge(v, w NodeID) bool {
	rv := g.rec(v)
	if rv == nil {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d): endpoint missing", v, w))
	}
	rw := g.rec(w)
	if rw == nil {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d): endpoint missing", v, w))
	}
	if !rv.out.add(w) {
		return false
	}
	rw.in.add(v)
	g.edges++
	g.gen++
	return true
}

// DeleteEdge removes edge (v, w) and reports whether it existed.
// Endpoint nodes are retained even if they become isolated.
func (g *Graph) DeleteEdge(v, w NodeID) bool {
	rv := g.rec(v)
	if rv == nil || !rv.out.remove(w) {
		return false
	}
	rw := g.rec(w)
	rw.in.remove(v)
	g.edges--
	g.gen++
	return true
}

// OutDegree returns the number of successors of v.
func (g *Graph) OutDegree(v NodeID) int {
	rec := g.rec(v)
	if rec == nil {
		return 0
	}
	return len(rec.out)
}

// InDegree returns the number of predecessors of v.
func (g *Graph) InDegree(v NodeID) int {
	rec := g.rec(v)
	if rec == nil {
		return 0
	}
	return len(rec.in)
}

// SuccessorsSorted returns the successors of v in ascending NodeID order.
// Algorithms that need the paper's "predefined order" tie-break use this.
// The returned slice is owned by the graph: callers must not mutate it, and
// it is valid only until the next mutation of v's adjacency.
func (g *Graph) SuccessorsSorted(v NodeID) []NodeID {
	rec := g.rec(v)
	if rec == nil {
		return nil
	}
	return rec.out
}

// PredecessorsSorted returns the predecessors of v in ascending NodeID
// order, under the same ownership contract as SuccessorsSorted.
func (g *Graph) PredecessorsSorted(v NodeID) []NodeID {
	rec := g.rec(v)
	if rec == nil {
		return nil
	}
	return rec.in
}

// Nodes calls fn for every node until fn returns false.
// Iteration order is unspecified.
func (g *Graph) Nodes(fn func(v NodeID, label string) bool) {
	for i := range g.nodes {
		if n := &g.nodes[i]; n.live && !fn(n.id, LabelOf(n.label)) {
			return
		}
	}
}

// NodesSorted returns all node IDs in ascending order. It walks the node
// index rather than the table: the direct window lists the dense IDs in
// order, so only the sparse IDs (negative, or far beyond |V|) are sorted,
// and the two runs merge.
func (g *Graph) NodesSorted() []NodeID {
	sparse := make([]NodeID, 0, len(g.index.sparse))
	for v := range g.index.sparse {
		sparse = append(sparse, v)
	}
	slices.Sort(sparse)
	vs := make([]NodeID, 0, g.numNodes)
	j := 0
	for v, e := range g.index.direct {
		if e == 0 {
			continue
		}
		for j < len(sparse) && sparse[j] < NodeID(v) {
			vs = append(vs, sparse[j])
			j++
		}
		vs = append(vs, NodeID(v))
	}
	return append(vs, sparse[j:]...)
}

// Edges calls fn for every edge until fn returns false.
func (g *Graph) Edges(fn func(e Edge) bool) {
	for i := range g.nodes {
		n := &g.nodes[i]
		for _, w := range n.out {
			if !fn(Edge{n.id, w}) {
				return
			}
		}
	}
}

// EdgesSorted returns all edges ordered by (From, To). The result is
// memoized against the mutation generation: repeated calls between
// updates return the same slice in O(1) instead of re-sorting. The slice
// is owned by the graph — treat it as read-only; it is valid until the
// next mutation.
func (g *Graph) EdgesSorted() []Edge {
	return g.edgesSorted.Get(g, func() []Edge {
		es := make([]Edge, 0, g.edges)
		g.Edges(func(e Edge) bool { es = append(es, e); return true })
		sort.Slice(es, func(i, j int) bool {
			if es[i].From != es[j].From {
				return es[i].From < es[j].From
			}
			return es[i].To < es[j].To
		})
		return es
	})
}

// NodesWithLabel returns the IDs of all nodes labeled label, sorted
// ascending. Backed by the inverted label index: cost is O(answer), not
// O(|V|). The slice is freshly allocated and owned by the caller.
func (g *Graph) NodesWithLabel(label string) []NodeID {
	lid, ok := LabelIDOf(label)
	if !ok {
		return nil
	}
	set := g.byLabel[lid]
	if set == nil {
		return nil
	}
	return slices.Clone(*set)
}

// NumNodesWithLabelID returns |{v : l(v) = lid}| in O(1).
func (g *Graph) NumNodesWithLabelID(lid LabelID) int {
	set := g.byLabel[lid]
	if set == nil {
		return 0
	}
	return len(*set)
}

// NodesWithLabelID calls fn for every node labeled lid, in ascending order,
// until fn returns false. Allocation-free; fn must not mutate the graph.
func (g *Graph) NodesWithLabelID(lid LabelID, fn func(v NodeID) bool) {
	set := g.byLabel[lid]
	if set == nil {
		return
	}
	for _, v := range *set {
		if !fn(v) {
			return
		}
	}
}

// Labels calls fn once per distinct label present in g with the number of
// nodes carrying it, until fn returns false. Order is unspecified.
func (g *Graph) Labels(fn func(label string, count int) bool) {
	for lid, set := range g.byLabel {
		if !fn(LabelOf(lid), len(*set)) {
			return
		}
	}
}

// Clone returns a deep copy of g: the node table, its index and the slot
// counts, so every node keeps its slot. The copy shares the
// process-wide label intern table (IDs remain comparable) but no mutable
// state; it inherits the shard count and parallelism budget.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:      slices.Clone(g.nodes),
		index:      NodeIndex{direct: slices.Clone(g.index.direct), sparse: maps.Clone(g.index.sparse)},
		numNodes:   g.numNodes,
		shards:     slices.Clone(g.shards),
		shardShift: g.shardShift,
		byLabel:    make(map[LabelID]*adjSet, len(g.byLabel)),
		edges:      g.edges,
		gen:        g.gen,
		workers:    g.workers,
	}
	for i := range c.nodes {
		n := &c.nodes[i]
		n.out, n.in = slices.Clone(n.out), slices.Clone(n.in)
	}
	for lid, set := range g.byLabel {
		cs := slices.Clone(*set)
		c.byLabel[lid] = &cs
	}
	return c
}

// MaxNodeID returns the largest node ID in g, or -1 if g is empty.
// Generators use it to mint fresh IDs.
func (g *Graph) MaxNodeID() NodeID {
	max := NodeID(-1)
	for i := range g.nodes {
		if n := &g.nodes[i]; n.live && n.id > max {
			max = n.id
		}
	}
	return max
}

// Equal reports whether g and h have identical node sets, labels and edges.
// Labels compare by interned ID, which is exact because the intern table is
// process-wide. Shard counts need not match: equality is over the abstract
// graph, not the partitioning.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for i := range g.nodes {
		n := &g.nodes[i]
		if !n.live {
			continue
		}
		hrec := h.rec(n.id)
		if hrec == nil || hrec.label != n.label {
			return false
		}
		for _, w := range n.out {
			if !hrec.out.has(w) {
				return false
			}
		}
	}
	return true
}

// String returns a compact human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d}", g.NumNodes(), g.NumEdges())
}
