package graph

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Sharded node storage. The node space is partitioned into a power-of-two
// number of shards by a multiplicative hash of the NodeID; each shard owns
// the node records (and therefore the out- and in-adjacency sets) of its
// nodes, plus a private dense-slot allocator. Cross-shard edges are
// recorded on both endpoint shards — (v, w) lives in v's out set on
// shard(v) and in w's in set on shard(w) — so traversal kernels read any
// shard without coordination, and a planned batch splits into per-shard
// effects with no cross-shard writes, which is what lets shard workers in
// other processes apply them independently (effects.go).
//
// Ownership invariant: a node record is written only (a) under the
// exclusive-mutation half of the concurrency contract, or (b) by
// ApplyShardEffects on a shard-container graph, for the one shard it was
// called for. Graph-global state (byLabel, edges, slotCeil, gen) is
// written only under (a).

// MaxShards caps the shard count. Far above any sensible core count; it
// bounds the per-graph fixed cost of the shard table.
const MaxShards = 256

// shard owns one partition of the node space.
type shard struct {
	nodes map[NodeID]*node
	// free recycles local slot indices of deleted nodes.
	free []int32
	// slotCap is the number of local slot indices ever issued.
	slotCap int32
}

// allocSlot issues a dense global slot for a new node of shard si: local
// slots interleave across shards (global = local·P + si), so the visited
// arrays stay compact as long as the hash keeps shards balanced. Callers
// on the serial path must refresh g.slotCeil afterwards.
func (sh *shard) allocSlot(p, si int32) int32 {
	var local int32
	if n := len(sh.free); n > 0 {
		local = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		local = sh.slotCap
		sh.slotCap++
	}
	return local*p + si
}

// recycleSlot returns a deleted node's global slot to the owning shard.
func (sh *shard) recycleSlot(slot, p int32) {
	sh.free = append(sh.free, slot/p)
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
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIdxOf maps a node ID to its owning shard: a Fibonacci multiplicative
// hash keeps sequential IDs (the common case in generated workloads) spread
// evenly. Deterministic for a fixed shard count.
func (g *Graph) shardIdxOf(v NodeID) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> g.shardShift
}

// rec returns the record of v, or nil: the sharded replacement for the old
// single node map lookup.
func (g *Graph) rec(v NodeID) *node {
	return g.shards[g.shardIdxOf(v)].nodes[v]
}

// refreshSlotCeil recomputes the exclusive upper bound of global slot
// indices from the per-shard allocators.
func (g *Graph) refreshSlotCeil() {
	var maxLocal int32
	for i := range g.shards {
		if c := g.shards[i].slotCap; c > maxLocal {
			maxLocal = c
		}
	}
	g.slotCeil = maxLocal * int32(len(g.shards))
}

// bumpSlotCeil grows slotCeil after a serial slot allocation.
func (g *Graph) bumpSlotCeil(slot int32) {
	if slot+1 > g.slotCeil {
		g.slotCeil = slot + 1
	}
}

// NumShards returns the shard count P (a power of two).
func (g *Graph) NumShards() int { return len(g.shards) }

// ShardOf returns the index of the shard owning v (whether or not v
// exists). Stable between SetShards calls.
func (g *Graph) ShardOf(v NodeID) int { return int(g.shardIdxOf(v)) }

// SetShards repartitions the node space into n shards (rounded up to a
// power of two, capped at MaxShards; n <= 0 restores the default, the
// smallest power of two ≥ runtime.GOMAXPROCS(0)). Rebalancing rehashes
// every node record and reissues dense slots — O(|V|) — so configure
// shards up front or at rare topology milestones, not per batch. Requires
// exclusive access (a mutation under the concurrency contract). Clones
// inherit the shard count. Each shard issues its slots in ascending NodeID
// order, so the result depends on the graph and n alone, not on how the
// graph was built.
func (g *Graph) SetShards(n int) {
	p := normalizeShards(n)
	if p == len(g.shards) {
		return
	}
	old := g.shards
	perShard := g.NumNodes()/p + 1
	g.shards = make([]shard, p)
	g.shardShift = shardShiftFor(p)
	for i := range g.shards {
		g.shards[i].nodes = make(map[NodeID]*node, perShard)
	}
	for i := range old {
		for v, rec := range old[i].nodes {
			g.shards[g.shardIdxOf(v)].nodes[v] = rec
		}
	}
	for si := range g.shards {
		sh := &g.shards[si]
		for _, v := range g.ShardNodesSorted(si) {
			sh.nodes[v].slot = sh.allocSlot(int32(p), int32(si))
		}
	}
	g.refreshSlotCeil()
}

// shardShiftFor returns the right-shift that maps the hash to [0, p).
func shardShiftFor(p int) uint {
	bits := uint(0)
	for 1<<bits < p {
		bits++
	}
	return 64 - bits // p == 1 shifts by 64, which Go defines as 0
}

// ShardNodes calls fn for every node owned by shard s with its interned
// label, until fn returns false. Iteration order is unspecified. Reads of
// distinct shards may run concurrently between mutations.
func (g *Graph) ShardNodes(s int, fn func(v NodeID, lid LabelID) bool) {
	for v, rec := range g.shards[s].nodes {
		if !fn(v, rec.label) {
			return
		}
	}
}

// NumShardNodes returns the number of nodes owned by shard s in O(1).
func (g *Graph) NumShardNodes(s int) int { return len(g.shards[s].nodes) }

// ShardNodesSorted returns the nodes owned by shard s in ascending order.
// The slice is freshly allocated and owned by the caller. The engines'
// batch builds use it to collect the node universe shard-parallel with a
// deterministic (shard-grouped, ascending) order.
func (g *Graph) ShardNodesSorted(s int) []NodeID {
	sh := &g.shards[s]
	out := make([]NodeID, 0, len(sh.nodes))
	for v := range sh.nodes {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// NodesSortedParallel returns all node IDs in ascending order, like
// NodesSorted, but collects and sorts per shard across Parallelism()
// workers and then merges the shard runs. Output is identical to
// NodesSorted; only the schedule differs. Callers must hold the graph
// read-shareable (no concurrent mutation).
func (g *Graph) NodesSortedParallel() []NodeID {
	p := len(g.shards)
	workers := g.Parallelism()
	if p == 1 || workers <= 1 {
		return g.NodesSorted()
	}
	runs := make([][]NodeID, p)
	ParallelFor(workers, p, func(_, s int) {
		runs[s] = g.ShardNodesSorted(s)
	})
	// Pairwise merge: O(n log P) total, versus O(n·P) for a linear-scan
	// selection over all heads.
	for len(runs) > 1 {
		merged := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				merged = append(merged, runs[i])
				break
			}
			merged = append(merged, mergeSortedIDs(runs[i], runs[i+1]))
		}
		runs = merged
	}
	return runs[0]
}

// mergeSortedIDs merges two ascending runs into a fresh ascending slice.
func mergeSortedIDs(a, b []NodeID) []NodeID {
	out := make([]NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// TouchedShards returns the sorted, de-duplicated indices of the shards
// owning any endpoint of the batch: the partitions a distributed
// application of b will write. Engines use it as a locality signal (how
// concentrated ΔG is) when deciding between incremental repair and batch
// fallback.
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

// ---- Batch planning (consumed by effects.go) ----

// planNode is a node the batch will create, with its first-mention label.
type planNode struct {
	v   NodeID
	lid LabelID
}

// planOp is one net edge effect of a normalized view of the batch.
type planOp struct {
	e  Edge
	op Op
}

// batchPlan is a validated, shard-partitioned execution plan for one batch.
type batchPlan struct {
	newNodes []planNode
	ops      []planOp
	// nodesByShard / opsByShard index into newNodes / ops per owning shard;
	// an op appears on both endpoint shards when they differ.
	nodesByShard [][]int32
	opsByShard   [][]int32
	// edges/sts hold every distinct edge the batch touches in first-touch
	// order with its running validation state; edgeIdx maps an edge to its
	// index there. Keeping the state in a slice means repeat touches and
	// the net-op emission pass cost slice reads, not map probes — the maps
	// are the planner's hot spot (hashing dominates planBatch's profile).
	// All scratch is retained across pooled reuses (cleared, keeping
	// buckets/capacity) so planning allocates nothing once the pool warms.
	edges    []Edge
	sts      []edgeState
	edgeIdx  map[Edge]int32
	newLabel map[NodeID]struct{}
}

// edgeState tracks one edge's running state during plan validation:
// whether it currently exists under the in-batch view and whether it
// existed before the batch.
type edgeState uint8

const (
	stCur     edgeState = 1 << iota // exists under the running in-batch view
	stInitial                       // existed before the batch
)

// batchPlanPool recycles plans (and their scratch maps) across PlanBatch
// calls; the distributed apply path compiles one plan
// per commit, so this is a hot allocation site.
var batchPlanPool sync.Pool

// getBatchPlan returns a cleared plan sized for p shards.
func getBatchPlan(p int) *batchPlan {
	plan, _ := batchPlanPool.Get().(*batchPlan)
	if plan == nil {
		plan = &batchPlan{
			edgeIdx:  make(map[Edge]int32, 64),
			newLabel: make(map[NodeID]struct{}, 64),
		}
	}
	plan.newNodes = plan.newNodes[:0]
	plan.ops = plan.ops[:0]
	if cap(plan.nodesByShard) < p {
		plan.nodesByShard = make([][]int32, p)
		plan.opsByShard = make([][]int32, p)
	} else {
		plan.nodesByShard = plan.nodesByShard[:p]
		plan.opsByShard = plan.opsByShard[:p]
	}
	for i := range plan.nodesByShard {
		plan.nodesByShard[i] = plan.nodesByShard[i][:0]
		plan.opsByShard[i] = plan.opsByShard[i][:0]
	}
	plan.edges = plan.edges[:0]
	plan.sts = plan.sts[:0]
	clear(plan.edgeIdx)
	clear(plan.newLabel)
	return plan
}

// putBatchPlan returns a plan to the pool.
func putBatchPlan(plan *batchPlan) { batchPlanPool.Put(plan) }

// planBatch validates b against the current graph (the same sequential
// applicability rule Apply enforces: no insert of an existing edge, no
// delete of a missing one, per the running in-batch state) and compiles
// the shard-partitioned plan of its net effects. Read-only; reports
// ok=false when any update would fail (ValidateBatch names the update).
func (g *Graph) planBatch(b Batch) (*batchPlan, bool) {
	plan := getBatchPlan(len(g.shards))
	ensure := func(v NodeID, label string) {
		if g.HasNode(v) {
			return
		}
		if _, ok := plan.newLabel[v]; ok {
			return
		}
		plan.newLabel[v] = struct{}{}
		si := g.shardIdxOf(v)
		plan.nodesByShard[si] = append(plan.nodesByShard[si], int32(len(plan.newNodes)))
		plan.newNodes = append(plan.newNodes, planNode{v: v, lid: InternLabel(label)})
	}
	for _, u := range b {
		e := u.Edge()
		i, seen := plan.edgeIdx[e]
		var st edgeState
		if seen {
			st = plan.sts[i]
		} else if g.HasEdge(u.From, u.To) {
			st = stCur | stInitial
		}
		switch u.Op {
		case Insert:
			if st&stCur != 0 {
				putBatchPlan(plan)
				return nil, false
			}
			ensure(u.From, u.FromLabel)
			ensure(u.To, u.ToLabel)
			st |= stCur
		case Delete:
			if st&stCur == 0 {
				putBatchPlan(plan)
				return nil, false
			}
			st &^= stCur
		default:
			putBatchPlan(plan)
			return nil, false
		}
		if seen {
			plan.sts[i] = st
		} else {
			plan.edgeIdx[e] = int32(len(plan.edges))
			plan.edges = append(plan.edges, e)
			plan.sts = append(plan.sts, st)
		}
	}
	// Emit net ops in first-touch order (deterministic schedule): one pass
	// over the distinct-edge slice, no map probes.
	for i, e := range plan.edges {
		st := plan.sts[i]
		if (st&stCur != 0) == (st&stInitial != 0) {
			continue // cancelled within the batch
		}
		op := Delete
		if st&stCur != 0 {
			op = Insert
		}
		oi := int32(len(plan.ops))
		plan.ops = append(plan.ops, planOp{e: e, op: op})
		sf, st64 := g.shardIdxOf(e.From), g.shardIdxOf(e.To)
		plan.opsByShard[sf] = append(plan.opsByShard[sf], oi)
		if st64 != sf {
			plan.opsByShard[st64] = append(plan.opsByShard[st64], oi)
		}
	}
	return plan, true
}
