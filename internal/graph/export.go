package graph

import "fmt"

// Per-shard state export and import. This is the substrate half of the
// durability subsystem (internal/store): a snapshot serializes each shard
// independently — node table, dense-slot allocator, adjacency — and a load
// reconstructs the shards in parallel, then finishes the graph-global
// state (inverted label index, edge count, slot ceiling) serially. The
// round trip restores the graph exactly, slot assignment included, so
// traversal schedules, scratch sizing and every downstream answer are
// identical to the pre-snapshot graph. The shard is also the intended unit
// of a future multi-process deployment: the same per-shard encoding a
// snapshot writes to disk is what a distributed incgraph would ship over
// RPC.
//
// Contract: ExportShard reads are safe whenever the graph is
// read-shareable (between mutations); distinct shards may be exported
// concurrently. LoadShard writes only shard-owned state, so distinct
// shards of a fresh graph may load concurrently (ParallelFor in
// internal/store does exactly that); FinishLoad then runs exactly once,
// serially, after every LoadShard completed.

// ShardNodeState is the serializable state of one node: identity, interned
// label, dense slot, and both adjacency directions in ascending order.
type ShardNodeState struct {
	ID    NodeID
	Label LabelID
	// Slot is the node's global dense slot (local·P + shard).
	Slot int32
	// Out and In list the adjacency ascending. On export the slices are
	// borrowed from the graph (valid until the next mutation); on load
	// ownership transfers to the graph.
	Out, In []NodeID
}

// ShardState is the serializable state of one shard: its nodes in
// ascending ID order (the stable encode order of the snapshot format) and
// its dense-slot allocator.
type ShardState struct {
	// Nodes is ascending by ID.
	Nodes []ShardNodeState
	// SlotCap is the number of local slot indices ever issued.
	SlotCap int32
	// Free lists the recycled local slot indices (order preserved: it is
	// allocator state, popped LIFO).
	Free []int32
}

// ExportShard returns the state of shard s in the stable encode order
// (nodes ascending by ID, adjacency ascending). The adjacency slices are
// borrowed from the graph: valid until the next mutation, do not mutate.
// The free-list slice is copied.
func (g *Graph) ExportShard(s int) ShardState {
	sh := &g.shards[s]
	st := ShardState{
		Nodes:   make([]ShardNodeState, 0, len(sh.nodes)),
		SlotCap: sh.slotCap,
	}
	if len(sh.free) > 0 {
		st.Free = make([]int32, len(sh.free))
		copy(st.Free, sh.free)
	}
	for _, v := range g.ShardNodesSorted(s) {
		rec := sh.nodes[v]
		st.Nodes = append(st.Nodes, ShardNodeState{
			ID:    v,
			Label: rec.label,
			Slot:  rec.slot,
			Out:   rec.out,
			In:    rec.in,
		})
	}
	return st
}

// LoadShard installs st as the complete state of shard s. The graph must
// be freshly created (NewSharded) and shard s must not have been loaded
// before. It writes only shard-owned state, so distinct shards may load
// concurrently; call FinishLoad once afterwards to rebuild the
// graph-global indexes. Adjacency slices in st transfer ownership to the
// graph.
func (g *Graph) LoadShard(s int, st ShardState) error {
	if s < 0 || s >= len(g.shards) {
		return fmt.Errorf("graph: LoadShard: shard %d out of range [0,%d)", s, len(g.shards))
	}
	sh := &g.shards[s]
	if len(sh.nodes) != 0 {
		return fmt.Errorf("graph: LoadShard: shard %d already populated", s)
	}
	// Allocator invariant: every local slot ever issued is either held by
	// a live node or parked on the free list, so the cap is exactly their
	// sum. Enforcing it both rejects corrupt state and bounds the
	// used-slot table below by the size of the decoded data.
	if int(st.SlotCap) != len(st.Nodes)+len(st.Free) {
		return fmt.Errorf("graph: LoadShard: shard %d slot cap %d != %d nodes + %d free",
			s, st.SlotCap, len(st.Nodes), len(st.Free))
	}
	p := int32(len(g.shards))
	// used tracks local slot occupancy: a duplicate would alias two nodes
	// onto one epoch-stamped scratch slot and silently corrupt traversals.
	used := make([]bool, st.SlotCap)
	claim := func(local int32) bool {
		if local < 0 || local >= st.SlotCap || used[local] {
			return false
		}
		used[local] = true
		return true
	}
	for _, f := range st.Free {
		if !claim(f) {
			return fmt.Errorf("graph: LoadShard: shard %d free list has invalid or duplicate slot %d", s, f)
		}
	}
	sh.slotCap = st.SlotCap
	if len(st.Free) > 0 {
		sh.free = make([]int32, len(st.Free))
		copy(sh.free, st.Free)
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
		if n.Slot < 0 || n.Slot%p != int32(s) || !claim(n.Slot/p) {
			return fmt.Errorf("graph: LoadShard: node %d has invalid or duplicate slot %d for shard %d", n.ID, n.Slot, s)
		}
		if !ascending(n.Out) || !ascending(n.In) {
			return fmt.Errorf("graph: LoadShard: node %d adjacency not strictly ascending", n.ID)
		}
		sh.nodes[n.ID] = &node{
			label: n.Label,
			slot:  n.Slot,
			out:   n.Out,
			in:    n.In,
		}
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
// index and the edge count from the loaded node records, restores the slot
// ceiling, and stamps the graph with the snapshot's mutation generation.
// Call it exactly once, serially, after every LoadShard returned.
func (g *Graph) FinishLoad(gen uint64) error {
	edges, inEdges := 0, 0
	// In global ascending order, every label-index add is an append; shard
	// by shard, each shard's run would be inserted into the middle of the
	// runs before it.
	for _, v := range g.NodesSortedParallel() {
		rec := g.rec(v)
		g.labelIndexAdd(rec.label, v)
		edges += len(rec.out)
		inEdges += len(rec.in)
	}
	if edges != inEdges {
		return fmt.Errorf("graph: FinishLoad: out-degree sum %d != in-degree sum %d", edges, inEdges)
	}
	g.edges = edges
	g.refreshSlotCeil()
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
	exists := make(map[Edge]bool, len(b))
	for i, u := range b {
		has, seen := exists[u.Edge()]
		if !seen {
			has = g.HasEdge(u.From, u.To)
		}
		if err := checkUpdate(u, has); err != nil {
			return nil, fmt.Errorf("update %d: %w", i, err)
		}
		exists[u.Edge()] = u.Op == Insert
	}
	return b.normalize(), nil
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

// ValidateNormalized is ValidateBatch for a batch in normal form (see
// Normalize): no two of its updates touch one edge, so each is checked
// against the graph on its own, with no running state and no allocation.
// The engines call it on the normalized batch before their first side
// effect, so a batch they reject leaves graph and engine untouched.
func (g *Graph) ValidateNormalized(b Batch) error {
	for _, u := range b {
		if err := checkUpdate(u, g.HasEdge(u.From, u.To)); err != nil {
			return err
		}
	}
	return nil
}
