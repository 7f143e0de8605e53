package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Per-shard state export and import. This is the substrate half of the
// durability subsystem (internal/store): a snapshot serializes each shard
// independently — its nodes with their labels and adjacency — and a load
// decodes the shards in parallel, places each shard's nodes into the one
// node table under slots its allocator issues in ID order, then finishes
// the graph-global state (inverted label index, edge count) serially. The
// round trip restores the graph — nodes, labels, edges, generation — but
// not its slots: a slot is private to the process that holds the graph,
// and no answer, ΔO or metered count depends on one. The same per-shard
// encoding a snapshot writes to disk is what the cluster coordinator
// ships to a worker (internal/store's shard parcels).
//
// Contract: ExportShard reads are safe whenever the graph is
// read-shareable (between mutations); distinct shards may be exported
// concurrently. Distinct shards of a fresh graph may load concurrently
// (ParallelFor in internal/store does exactly that): LoadShard checks the
// state without a lock and places the nodes into the one node table under
// the graph's load lock. FinishLoad then runs exactly once, serially, after
// every LoadShard completed.

// ShardNodeState is the serializable state of one node: identity, interned
// label, and both adjacency directions in ascending order.
type ShardNodeState struct {
	ID    NodeID
	Label LabelID
	// Out and In list the adjacency ascending. On export the slices are
	// borrowed from the graph (valid until the next mutation); on load
	// ownership transfers to the graph.
	Out, In []NodeID
}

// ShardState is the serializable state of one shard: its nodes in
// ascending ID order, the stable encode order of the snapshot format.
type ShardState struct {
	// Nodes is ascending by ID.
	Nodes []ShardNodeState
}

// ExportShard returns the state of shard s in the stable encode order
// (nodes ascending by ID, adjacency ascending), which depends on the
// shard's nodes alone, not on their slots. The adjacency slices are
// borrowed from the graph: valid until the next mutation, do not mutate.
func (g *Graph) ExportShard(s int) ShardState {
	st := ShardState{Nodes: make([]ShardNodeState, 0, g.shards[s].live)}
	for i := s; i < len(g.nodes); i += len(g.shards) {
		if n := &g.nodes[i]; n.live {
			st.Nodes = append(st.Nodes, ShardNodeState{ID: n.id, Label: n.label, Out: n.out, In: n.in})
		}
	}
	slices.SortFunc(st.Nodes, func(a, b ShardNodeState) int { return cmp.Compare(a.ID, b.ID) })
	return st
}

// LoadShard installs st as the complete state of shard s. The graph must
// be freshly created (NewSharded) and shard s must not have been loaded
// before. Distinct shards may load concurrently (see the contract above);
// call FinishLoad once afterwards to rebuild the graph-global indexes. The
// shard's allocator issues the nodes' slots in ID order. A state that
// fails its checks leaves the shard as it was. Adjacency slices in st
// transfer ownership to the graph.
func (g *Graph) LoadShard(s int, st ShardState) error {
	if s < 0 || s >= len(g.shards) {
		return fmt.Errorf("graph: LoadShard: shard %d out of range [0,%d)", s, len(g.shards))
	}
	sh := &g.shards[s]
	if sh.live != 0 {
		return fmt.Errorf("graph: LoadShard: shard %d already populated", s)
	}
	// Slots are int32: the shard's last, (n−1)·P + s, must fit.
	if int64(len(st.Nodes))*int64(len(g.shards)) > math.MaxInt32 {
		return fmt.Errorf("graph: LoadShard: shard %d: %d nodes overflow the slot space", s, len(st.Nodes))
	}
	var prev NodeID
	for i, n := range st.Nodes {
		if i > 0 && n.ID <= prev {
			return fmt.Errorf("graph: LoadShard: shard %d nodes not ascending at %d", s, n.ID)
		}
		prev = n.ID
		if int(g.shardIdxOf(n.ID)) != s {
			return fmt.Errorf("graph: LoadShard: node %d does not hash to shard %d", n.ID, s)
		}
		if !ascending(n.Out) || !ascending(n.In) {
			return fmt.Errorf("graph: LoadShard: node %d adjacency not strictly ascending", n.ID)
		}
	}
	g.loadMu.Lock()
	defer g.loadMu.Unlock()
	// The shard's slots end below len(st.Nodes)·P: grow the table once.
	g.nodes = lengthen(g.nodes, len(st.Nodes)*len(g.shards))
	for _, n := range st.Nodes {
		g.place(node{id: n.ID, label: n.Label, out: n.Out, in: n.In})
	}
	return nil
}

// ascending reports whether vs is strictly ascending.
func ascending(vs []NodeID) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			return false
		}
	}
	return true
}

// FinishLoad completes a per-shard load: it rebuilds the inverted label
// index and the edge count from the loaded node records and stamps the
// graph with the snapshot's mutation generation.
// Call it exactly once, serially, after every LoadShard returned.
func (g *Graph) FinishLoad(gen uint64) error {
	edges, inEdges := 0, 0
	// In global ascending order, every label-index add is an append; shard
	// by shard, each shard's run would be inserted into the middle of the
	// runs before it.
	for _, v := range g.NodesSorted() {
		rec := g.rec(v)
		g.labelIndexAdd(rec.label, v)
		edges += len(rec.out)
		inEdges += len(rec.in)
	}
	if edges != inEdges {
		return fmt.Errorf("graph: FinishLoad: out-degree sum %d != in-degree sum %d", edges, inEdges)
	}
	g.edges = edges
	g.gen = gen
	return nil
}

// ValidateBatch reports whether ApplyBatch(b) would succeed against the
// current graph, without mutating it: the same sequential applicability
// rule Apply enforces (no insertion of an existing edge, no deletion of a
// missing one, tracked through the running in-batch state). The durability
// layer validates a batch before appending it to the write-ahead log, so a
// logged batch is always replayable.
//
// Nearly every batch touches no edge twice; then there is no in-batch state
// to track, and each update is checked against the graph on its own.
func (g *Graph) ValidateBatch(b Batch) error {
	_, err := g.ValidateNormalize(b)
	return err
}

// ValidateNormalize is ValidateBatch returning, for a valid batch, its
// normal form (Normalize) as well: both rest on one comparison of the
// batch's edges, taken once. A batch that repeats an edge is still checked
// update by update against the running in-batch state before it is
// normalized — an invalid batch can normalize to a valid one.
func (g *Graph) ValidateNormalize(b Batch) (Batch, error) {
	if !b.repeatsEdge() {
		// The node lookups of a batch are independent; issued back to back,
		// their cache misses overlap.
		var buf [64]*node
		recs := buf[:0]
		for _, u := range b {
			recs = append(recs, g.rec(u.From))
		}
		for i, u := range b {
			if err := checkUpdate(u, recs[i] != nil && recs[i].out.has(u.To)); err != nil {
				return nil, fmt.Errorf("update %d: %w", i, err)
			}
		}
		return b, nil
	}
	// One pass over one map validates and gathers what the normal form
	// needs.
	runs := make(map[Edge]edgeRun, len(b))
	for i, u := range b {
		r, seen := runs[u.Edge()]
		if !seen {
			r = edgeRun{first: u.Op, present: g.HasEdge(u.From, u.To)}
		}
		if err := checkUpdate(u, r.present); err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		r.last, r.present = i, u.Op == Insert
		runs[u.Edge()] = r
	}
	return b.normalForm(runs), nil
}

// checkUpdate is the rule Apply enforces, for an update whose edge exists
// or not: an insertion needs it absent, a deletion present.
func checkUpdate(u Update, has bool) error {
	switch {
	case u.Op == Insert && has:
		return fmt.Errorf("%w: insert of existing edge (%d,%d)", ErrBadUpdate, u.From, u.To)
	case u.Op == Delete && !has:
		return fmt.Errorf("%w: delete of missing edge (%d,%d)", ErrBadUpdate, u.From, u.To)
	case u.Op != Insert && u.Op != Delete:
		return fmt.Errorf("%w: unknown op %v", ErrBadUpdate, u.Op)
	}
	return nil
}
