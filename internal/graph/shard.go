package graph

import (
	"math/bits"
	"runtime"
)

// Sharded node space over one node table. A node's record is the node
// table's entry at the node's dense slot, and a NodeIndex maps NodeID →
// slot, so a lookup is an index read plus an array read. A multiplicative
// hash of the NodeID partitions the nodes into a power-of-two number P of
// shards; shard s issues the slots ≡ s (mod P) (slot = local·P + s), so
// its nodes are the table's stride s, s+P, s+2P, …. Cross-shard edges are
// recorded on both endpoint shards, so a planned batch splits into
// per-shard effects that shard workers in other processes apply
// independently (effects.go).
//
// Nodes are never deleted (the paper's unit updates insert and delete
// edges, and a node appears only through an insertion), so shard s's nodes
// hold exactly its local slots 0…live−1, and its allocator is that count.
// A slot is private to the process that holds the graph: neither snapshots
// nor shard parcels carry one, and a load issues slots afresh.
//
// Ownership invariant: node records, and their table and index entries,
// are written only (a) under the exclusive-mutation half of the
// concurrency contract, (b) by ApplyShardEffects or ResetShard on a
// shard-container graph, or (c) by LoadShard, whose calls for distinct
// shards may run concurrently and place under the graph's load lock.
// Graph-global state (byLabel, edges, gen) is written only under (a).
//
// A *node from rec is valid only until the next node insertion (AddNode,
// EnsureNode, a placement), which may grow the table; nothing in this
// package holds one across an insertion.

// MaxShards caps the shard count. Far above any sensible core count; it
// bounds the per-graph fixed cost of the shard table.
const MaxShards = 256

// shard is one partition of the node space: the number of its nodes,
// which is also its next local slot.
type shard struct {
	live int32
}

// normalizeShards rounds n to the effective shard count: n <= 0 selects
// the default (smallest power of two covering runtime.GOMAXPROCS(0), the
// same budget Parallelism defaults to), other values round up to a power
// of two and clamp to [1, MaxShards].
func normalizeShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > MaxShards {
		n = MaxShards
	}
	return 1 << bits.Len(uint(n-1))
}

// shardIdxOf maps a node ID to its owning shard: a Fibonacci multiplicative
// hash keeps sequential IDs (the common case in generated workloads) spread
// evenly. Deterministic for a fixed shard count.
func (g *Graph) shardIdxOf(v NodeID) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> g.shardShift
}

// rec returns the record of v, or nil. The pointer is into the node
// table: valid only until the next node insertion.
func (g *Graph) rec(v NodeID) *node {
	if i, ok := g.index.Get(v); ok {
		return &g.nodes[i]
	}
	return nil
}

// place installs n, a node not in g, at its shard's next slot: local
// slots interleave across shards (global = local·P + shard), so the node
// table stays compact as long as the hash keeps shards balanced. The table
// grows to cover the slot and the index maps n.id to it.
func (g *Graph) place(n node) {
	si := g.shardIdxOf(n.id)
	sh := &g.shards[si]
	slot := sh.live*int32(len(g.shards)) + int32(si)
	g.nodes = lengthen(g.nodes, int(slot)+1)
	n.live = true
	g.nodes[slot] = n
	g.index.Add(n.id, slot)
	sh.live++
	g.numNodes++
}

// NumShards returns the shard count P (a power of two).
func (g *Graph) NumShards() int { return len(g.shards) }

// ShardOf returns the index of the shard owning v (whether or not v
// exists). Stable between SetShards calls.
func (g *Graph) ShardOf(v NodeID) int { return int(g.shardIdxOf(v)) }

// SetShards repartitions the node space into n shards (rounded up to a
// power of two, capped at MaxShards; n <= 0 restores the default, the
// smallest power of two ≥ runtime.GOMAXPROCS(0)). Rebalancing rehashes
// every node and re-places it in a new table under a reissued slot —
// O(|V|) — so configure shards up front or at rare topology milestones,
// not per batch. Requires exclusive access (a mutation under the
// concurrency contract). Clones inherit the shard count.
func (g *Graph) SetShards(n int) {
	p := normalizeShards(n)
	if p == len(g.shards) {
		return
	}
	old := g.nodes
	g.shards = make([]shard, p)
	g.shardShift = shardShiftFor(p)
	g.nodes = make([]node, 0, g.numNodes+p)
	g.index = NodeIndex{}
	g.numNodes = 0
	for i := range old {
		if old[i].live {
			g.place(old[i])
		}
	}
}

// shardShiftFor returns the right-shift that maps the hash to [0, p), for
// a power of two p; p == 1 shifts by 64, which Go defines as 0.
func shardShiftFor(p int) uint { return 64 - uint(bits.TrailingZeros(uint(p))) }

// ShardNodes calls fn for every node owned by shard s with its interned
// label, until fn returns false. Iteration order is slot order. Reads of
// distinct shards may run concurrently between mutations.
func (g *Graph) ShardNodes(s int, fn func(v NodeID, lid LabelID) bool) {
	for i := s; i < len(g.nodes); i += len(g.shards) {
		if n := &g.nodes[i]; n.live && !fn(n.id, n.label) {
			return
		}
	}
}

// NumShardNodes returns the number of nodes owned by shard s in O(1).
func (g *Graph) NumShardNodes(s int) int { return int(g.shards[s].live) }

// TouchedShards returns the sorted, de-duplicated indices of the shards
// owning any endpoint of the batch: the partitions a distributed
// application of b will write. The coordinator prepares exactly those
// shards before it plans the batch.
func (b Batch) TouchedShards(g *Graph) []int {
	// Shard indices fit a fixed 256-bit set (MaxShards), so dedup and sort
	// cost no map and no sort.Ints — this runs per distributed apply.
	var set [MaxShards / 64]uint64
	for _, u := range b {
		s := g.shardIdxOf(u.From)
		set[s>>6] |= 1 << (s & 63)
		s = g.shardIdxOf(u.To)
		set[s>>6] |= 1 << (s & 63)
	}
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	out := make([]int, 0, n)
	for wi, w := range set {
		for w != 0 {
			out = append(out, wi<<6|bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}
