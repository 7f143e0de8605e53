package graph

import (
	"fmt"
	"sync"
)

// Remote phase-1 hooks. A batch validated and planned against the graph
// (planBatch, shard.go) splits into per-shard effects, and applying one
// shard's effects touches nothing but shard-owned state. That is exactly
// the property a multi-process deployment needs: a coordinator can compile
// the plan once, ship each shard's slice of it to the worker process
// owning that shard (phase 1), and apply the batch to its own full graph
// (phase 2, the commit), and the workers' shards then hold what the
// coordinator's do. This file exports the validated plan itself (PlanBatch,
// with zero-copy per-shard iteration for wire encoders), the materialized
// per-shard slices (PlanShardEffects) and their application
// (ApplyShardEffects). Labels appear as interned LabelIDs; because IDs are
// process-local, a wire protocol must ship the label-string table
// alongside (once per session — see InternedLabels) and translate IDs at
// the receiving end.
//
// A worker's graph is a shard container: it holds authoritative node
// records, slot allocators and adjacency for the shards placed on it
// (graph.LoadShard), and nothing else — the graph-global indexes (inverted
// label index, edge count) are never built, FinishLoad is never called,
// and cross-shard edges are present only on their owned endpoint's shard.
// ApplyShardEffects and ResetShard maintain exactly that state and no
// more.

// ShardNewNode is one node a planned batch creates, with the interned
// label of its first mention. Order matters: nodes are created in plan
// order so slot assignment matches the coordinator's application exactly.
// The LabelID is process-local; effects that crossed a process boundary
// must carry IDs already translated into the local intern table.
type ShardNewNode struct {
	ID    NodeID
	Label LabelID
}

// ShardOp is one net edge effect of a planned batch.
type ShardOp struct {
	Op       Op
	From, To NodeID
}

// ShardEffects is the slice of a validated batch plan owned by one shard:
// the new nodes hashing to it and every net edge op with an endpoint on
// it. An op appears in the effects of both endpoint shards when they
// differ; each side applies only its owned half.
type ShardEffects struct {
	Shard    int
	NewNodes []ShardNewNode
	Ops      []ShardOp
}

// EdgeDelta returns the edge-count contribution of applying e to its
// shard, counted on the From side so each edge counts exactly once across
// shards. It is a pure function of the plan — the coordinator uses it to
// cross-check the deltas remote workers report.
func (e ShardEffects) EdgeDelta(g *Graph) int {
	d := 0
	u64si := uint64(e.Shard)
	for _, op := range e.Ops {
		if g.shardIdxOf(op.From) != u64si {
			continue
		}
		if op.Op == Insert {
			d++
		} else {
			d--
		}
	}
	return d
}

// PlanShardEffects validates b against the current graph (the same
// sequential applicability rule ApplyBatch enforces) and compiles its net
// effects partitioned by owning shard, in a process-portable form. It is
// read-only and touches only the shards owning an endpoint of b, so plans
// for batches with disjoint TouchedShards may be compiled concurrently
// between mutations. ok is false when the batch would fail partway; use
// ValidateBatch for the precise error.
func (g *Graph) PlanShardEffects(b Batch) ([]ShardEffects, bool) {
	plan, ok := g.PlanBatch(b)
	if !ok {
		return nil, false
	}
	defer plan.Release()
	var out []ShardEffects
	for _, si := range plan.TouchedShards() {
		eff := ShardEffects{Shard: si}
		if n := plan.NumNewNodes(si); n > 0 {
			eff.NewNodes = make([]ShardNewNode, 0, n)
			plan.NewNodes(si, func(id NodeID, lid LabelID) {
				eff.NewNodes = append(eff.NewNodes, ShardNewNode{ID: id, Label: lid})
			})
		}
		if n := plan.NumOps(si); n > 0 {
			eff.Ops = make([]ShardOp, 0, n)
			plan.Ops(si, func(op Op, from, to NodeID) {
				eff.Ops = append(eff.Ops, ShardOp{Op: op, From: from, To: to})
			})
		}
		out = append(out, eff)
	}
	return out, true
}

// Plan is an exported handle over one validated, shard-partitioned batch
// plan: the net effects of the batch, iterable per shard without materializing intermediate slices. Wire
// encoders walk it directly into their output buffers — the zero-copy
// distributed-apply path. A Plan is read-only, valid until the next
// mutation of the graph it was compiled against, and should be returned
// to the internal pool with Release when done.
type Plan struct {
	g       *Graph
	bp      *batchPlan
	touched []int
}

// PlanBatch validates b against the current graph (the same sequential
// applicability rule ApplyBatch enforces) and compiles its net effects
// partitioned by owning shard. Read-only; plans for batches with disjoint
// TouchedShards may be compiled concurrently between mutations. ok is
// false when the batch would fail partway; use ValidateBatch for the
// precise error.
func (g *Graph) PlanBatch(b Batch) (*Plan, bool) {
	bp, ok := g.planBatch(b)
	if !ok {
		return nil, false
	}
	p := planHandlePool.Get().(*Plan)
	p.g, p.bp = g, bp
	p.touched = p.touched[:0]
	for si := range g.shards {
		if len(bp.nodesByShard[si]) > 0 || len(bp.opsByShard[si]) > 0 {
			p.touched = append(p.touched, si)
		}
	}
	return p, true
}

var planHandlePool = sync.Pool{New: func() any { return new(Plan) }}

// Release returns the plan's buffers to the pool. The Plan must not be
// used afterwards.
func (p *Plan) Release() {
	if p.bp != nil {
		putBatchPlan(p.bp)
	}
	p.g, p.bp = nil, nil
	planHandlePool.Put(p)
}

// TouchedShards returns the sorted indices of the shards with at least
// one effect. The slice is owned by the plan.
func (p *Plan) TouchedShards() []int { return p.touched }

// NumNewNodes returns the number of nodes the plan creates on shard si.
func (p *Plan) NumNewNodes(si int) int { return len(p.bp.nodesByShard[si]) }

// NumOps returns the number of net edge ops with an endpoint on shard si.
func (p *Plan) NumOps(si int) int { return len(p.bp.opsByShard[si]) }

// NewNodes calls fn for every node the plan creates on shard si, in plan
// order (the order phase 1 must allocate slots in).
func (p *Plan) NewNodes(si int, fn func(id NodeID, lid LabelID)) {
	for _, ni := range p.bp.nodesByShard[si] {
		n := p.bp.newNodes[ni]
		fn(n.v, n.lid)
	}
}

// Ops calls fn for every net edge op with an endpoint on shard si, in
// plan emission order.
func (p *Plan) Ops(si int, fn func(op Op, from, to NodeID)) {
	for _, oi := range p.bp.opsByShard[si] {
		op := p.bp.ops[oi]
		fn(op.op, op.e.From, op.e.To)
	}
}

// EdgeDelta returns the edge-count contribution of shard si, counted on
// the From side so each edge counts exactly once across shards — the
// cross-check value for remote phase-1 deltas.
func (p *Plan) EdgeDelta(si int) int {
	d := 0
	u64si := uint64(si)
	for _, oi := range p.bp.opsByShard[si] {
		op := p.bp.ops[oi]
		if p.g.shardIdxOf(op.e.From) != u64si {
			continue
		}
		if op.op == Insert {
			d++
		} else {
			d--
		}
	}
	return d
}

// ApplyShardEffects is phase 1 for one shard, driven from outside: it
// creates the shard's new nodes in plan order (so slot assignment is
// identical to the coordinator's own application) and applies the owned
// halves of every edge effect, returning the shard's edge-count delta.
// It writes only shard-owned state; the graph-global indexes are left
// untouched, which is correct for shard-container graphs (see the file
// comment) and would corrupt a fully indexed one.
//
// Errors report divergence between the shipped effects and the local shard
// state (a node missing, an edge already present); the shard may then be
// partially applied and must be re-placed from an authoritative segment
// before further use.
func (g *Graph) ApplyShardEffects(e ShardEffects) (int, error) {
	if e.Shard < 0 || e.Shard >= len(g.shards) {
		return 0, fmt.Errorf("graph: ApplyShardEffects: shard %d out of range [0,%d)", e.Shard, len(g.shards))
	}
	sh := &g.shards[e.Shard]
	p32, si32 := int32(len(g.shards)), int32(e.Shard)
	u64si := uint64(e.Shard)
	for _, n := range e.NewNodes {
		if g.shardIdxOf(n.ID) != u64si {
			return 0, fmt.Errorf("graph: ApplyShardEffects: node %d does not hash to shard %d", n.ID, e.Shard)
		}
		if _, ok := sh.nodes[n.ID]; ok {
			return 0, fmt.Errorf("graph: ApplyShardEffects: node %d already exists on shard %d", n.ID, e.Shard)
		}
		sh.nodes[n.ID] = &node{label: n.Label, slot: sh.allocSlot(p32, si32)}
	}
	delta := 0
	for _, op := range e.Ops {
		owned := false
		if g.shardIdxOf(op.From) == u64si {
			owned = true
			rec := sh.nodes[op.From]
			if rec == nil {
				return delta, fmt.Errorf("graph: ApplyShardEffects: source %d missing from shard %d", op.From, e.Shard)
			}
			if op.Op == Insert {
				if !rec.out.add(op.To) {
					return delta, fmt.Errorf("graph: ApplyShardEffects: edge (%d,%d) already present", op.From, op.To)
				}
				delta++
			} else {
				if !rec.out.remove(op.To) {
					return delta, fmt.Errorf("graph: ApplyShardEffects: edge (%d,%d) already absent", op.From, op.To)
				}
				delta--
			}
			sh.noteDirty(&rec.out)
		}
		if g.shardIdxOf(op.To) == u64si {
			owned = true
			rec := sh.nodes[op.To]
			if rec == nil {
				return delta, fmt.Errorf("graph: ApplyShardEffects: target %d missing from shard %d", op.To, e.Shard)
			}
			if op.Op == Insert {
				rec.in.add(op.From)
			} else {
				rec.in.remove(op.From)
			}
			sh.noteDirty(&rec.in)
		}
		if !owned {
			return delta, fmt.Errorf("graph: ApplyShardEffects: op %v(%d,%d) has no endpoint on shard %d", op.Op, op.From, op.To, e.Shard)
		}
	}
	// There is no phase 2 here, and shard containers never run
	// PrepareConcurrentReads (worker requests serialize, so sorted caches
	// rebuild lazily and race-free): discard the phase-1 dirty queue
	// instead of parking it on the graph, where it would grow without
	// bound and pin dropped replicas' records across ResetShard cycles.
	for _, a := range sh.dirty {
		a.queued = false
	}
	sh.dirty = sh.dirty[:0]
	g.refreshSlotCeil()
	return delta, nil
}

// ResetShard erases shard s — node records, slot allocator, dirty queue —
// returning it to the freshly created state LoadShard requires, so an
// authoritative segment can be (re-)placed over a diverged or stale copy.
// Like ApplyShardEffects it maintains only shard-owned state: calling it
// on a graph whose global indexes were built through the normal mutation
// API would leave the inverted label index and edge count stale. It exists
// for shard-container graphs.
func (g *Graph) ResetShard(s int) {
	sh := &g.shards[s]
	sh.nodes = make(map[NodeID]*node)
	sh.free = nil
	sh.slotCap = 0
	sh.dirty = nil
	g.refreshSlotCeil()
}
