package graph

import (
	"fmt"
	"sync"
)

// Remote phase-1 hooks. A batch validated and planned against the graph
// (planBatch, below) splits into per-shard effects, and applying one
// shard's effects touches no node record of another shard. That is exactly
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
// records and adjacency for the shards placed on it
// (graph.LoadShard), and nothing else — the graph-global indexes (inverted
// label index, edge count) are never built, FinishLoad is never called,
// and cross-shard edges are present only on their owned endpoint's shard.
// ApplyShardEffects and ResetShard maintain exactly that state and no
// more.

// ShardNewNode is one node a planned batch creates, with the interned
// label of its first mention. The LabelID is process-local; effects that crossed a process boundary
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
// order.
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
// creates the shard's new nodes and applies the owned halves of every
// edge effect, returning the shard's edge-count delta. Which slots the new
// nodes get is this graph's own affair; nothing compares them across
// processes. It writes only the shard's nodes; the graph-global indexes
// are left untouched, which is correct for shard-container graphs (see the
// file comment) and would corrupt a fully indexed one. Calls on one graph
// run serially: new nodes go into its one node table.
//
// Errors report divergence between the shipped effects and the local shard
// state (a node missing, an edge already present); the shard may then be
// partially applied and must not be used as a replica again.
func (g *Graph) ApplyShardEffects(e ShardEffects) (int, error) {
	if e.Shard < 0 || e.Shard >= len(g.shards) {
		return 0, fmt.Errorf("graph: ApplyShardEffects: shard %d out of range [0,%d)", e.Shard, len(g.shards))
	}
	u64si := uint64(e.Shard)
	for _, n := range e.NewNodes {
		if g.shardIdxOf(n.ID) != u64si {
			return 0, fmt.Errorf("graph: ApplyShardEffects: node %d does not hash to shard %d", n.ID, e.Shard)
		}
		if g.HasNode(n.ID) {
			return 0, fmt.Errorf("graph: ApplyShardEffects: node %d already exists on shard %d", n.ID, e.Shard)
		}
		g.place(node{id: n.ID, label: n.Label})
	}
	delta := 0
	for _, op := range e.Ops {
		owned := false
		if g.shardIdxOf(op.From) == u64si {
			owned = true
			rec := g.rec(op.From)
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
		}
		if g.shardIdxOf(op.To) == u64si {
			owned = true
			rec := g.rec(op.To)
			if rec == nil {
				return delta, fmt.Errorf("graph: ApplyShardEffects: target %d missing from shard %d", op.To, e.Shard)
			}
			if op.Op == Insert {
				rec.in.add(op.From)
			} else {
				rec.in.remove(op.From)
			}
		}
		if !owned {
			return delta, fmt.Errorf("graph: ApplyShardEffects: op %v(%d,%d) has no endpoint on shard %d", op.Op, op.From, op.To, e.Shard)
		}
	}
	return delta, nil
}

// ResetShard erases shard s — its node records, which also empties its
// slot count — returning it to the freshly created state LoadShard
// requires, so an authoritative segment can be (re-)placed over a diverged
// or stale copy. Like ApplyShardEffects it maintains only the shard's own
// state: calling it on a graph whose global indexes were built through the
// normal mutation API would leave the inverted label index and edge count
// stale. It exists for shard-container graphs.
func (g *Graph) ResetShard(s int) {
	for i := s; i < len(g.nodes); i += len(g.shards) {
		if g.nodes[i].live {
			g.index.Remove(g.nodes[i].id)
			g.nodes[i] = node{}
			g.numNodes--
		}
	}
	g.shards[s].live = 0
}

// ---- Batch planning (what PlanBatch exports) ----

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
