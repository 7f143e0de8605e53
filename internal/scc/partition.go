package scc

import (
	"cmp"
	"slices"
	"sync"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// partition is the dense node index, the graph's adjacency mirrored over
// it, and the component membership, with the Tarjan scratch that partitions
// and re-partitions it. State and the DynSCC baseline both maintain their
// contracted graphs on top of one.
//
// Every pass of the engine walks succ and pred and never the graph: an edge
// examined is one slice element, not a hash probe for the node record and
// another for the neighbour's index. The graph is advanced by whoever owns it
// — State.Apply, the unit loop and DynSCC update by update, or a
// store holding one graph under several engines — and applyEdge, the one
// place a row changes, replays each edge update onto the mirror;
// CheckInvariants audits the two against each other.
type partition struct {
	g     *graph.Graph
	meter *cost.Meter
	// ids and idx are the two directions of the dense index. Build-time
	// nodes are indexed in ascending NodeID order; later nodes append.
	ids []graph.NodeID
	idx graph.NodeIndex
	// succ[i] and pred[i] list the successors and predecessors of ids[i] as
	// dense indices, in ascending order of NodeID — not of index: the two
	// orders part ways as soon as a late node has a small ID, and the order
	// a pass visits neighbours in decides the DFS tree, hence the certificate
	// kept and the work metered. It is the order of SuccessorsSorted and
	// PredecessorsSorted, whatever the deployment shape. Build-time rows are
	// carved from one backing array each and have no spare capacity, so the
	// first insertion at a node moves its row out.
	succ, pred [][]int32
	// comp maps a dense index to its component.
	comp []CompID
	// members lists each component's nodes in ascending NodeID order. A
	// published slice is immutable: splits, peels and merges build new ones.
	// moved is union's scratch.
	members map[CompID][]graph.NodeID
	moved   []graph.NodeID
	next    CompID
	// t is the scratch of the passes over the graph; its result stays
	// readable until the next one. roots is runScoped's root list, and
	// scope the number of nodes the scoped runs have covered, in all.
	t     tarjan
	roots []int32
	scope int
}

// init indexes g's nodes, mirrors its adjacency and partitions it with one
// Tarjan run; the components take CompIDs 0..k-1 in emission (reverse
// topological) order. The run's num/low/parent stay in p.t for the
// caller to adopt.
func (p *partition) init(g *graph.Graph, meter *cost.Meter) {
	p.g, p.meter = g, meter
	// Tarjan needs the global ascending node order. The DFS itself stays
	// sequential — IncSCC's certificate is order-dependent.
	p.ids = g.NodesSorted()
	p.idx = graph.IndexNodes(p.ids)
	p.succ = mirror(g, p.ids, &p.idx)
	p.pred = transpose(p.succ)
	p.comp = make([]CompID, len(p.ids))
	p.members = make(map[CompID][]graph.NodeID)
	p.t.run(p.succ, nil, nil, 0)
	p.mint(p.ids, -1)
}

// mirror returns g's successor lists in index space: row i lists the
// successors of ids[i], in SuccessorsSorted order, as idx numbers them. The
// rows are cut from one backing array.
func mirror(g *graph.Graph, ids []graph.NodeID, idx *graph.NodeIndex) [][]int32 {
	rows := make([][]int32, len(ids))
	backing := make([]int32, 0, g.NumEdges())
	for i, v := range ids {
		lo := len(backing)
		for _, w := range g.SuccessorsSorted(v) {
			backing = append(backing, idx.Of(w))
		}
		rows[i] = backing[lo:len(backing):len(backing)]
	}
	return rows
}

// transpose returns the predecessor rows of successor rows whose index
// order is their NodeID order (true at Build): filling them by ascending
// source leaves every row ascending too.
func transpose(succ [][]int32) [][]int32 {
	deg := make([]int32, len(succ))
	m := 0
	for _, row := range succ {
		m += len(row)
		for _, w := range row {
			deg[w]++
		}
	}
	backing := make([]int32, m)
	pred := make([][]int32, len(succ))
	lo := int32(0)
	for i, d := range deg {
		pred[i] = backing[lo : lo : lo+d]
		lo += d
	}
	for v, row := range succ {
		for _, w := range row {
			pred[w] = append(pred[w], int32(v))
		}
	}
	return pred
}

// applyEdge replays onto the mirror an edge update u the graph has already
// taken; its endpoints are indexed. It is the only place a row changes.
func (p *partition) applyEdge(u graph.Update) {
	v, w := p.idx.Of(u.From), p.idx.Of(u.To)
	if u.Op == graph.Insert {
		p.succ[v] = p.rowInsert(p.succ[v], w)
		p.pred[w] = p.rowInsert(p.pred[w], v)
	} else {
		p.succ[v] = p.rowDelete(p.succ[v], w)
		p.pred[w] = p.rowDelete(p.pred[w], v)
	}
}

// rowFind returns the position of index j in row, or where it belongs: rows
// are ordered by NodeID.
func (p *partition) rowFind(row []int32, j int32) int {
	id := p.ids[j]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.ids[row[mid]] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (p *partition) rowInsert(row []int32, j int32) []int32 {
	return slices.Insert(row, p.rowFind(row, j), j)
}

func (p *partition) rowDelete(row []int32, j int32) []int32 {
	pos := p.rowFind(row, j)
	return slices.Delete(row, pos, pos+1)
}

// crossEdges calls visit with the components of every edge of the graph
// that joins two of them: the edges G_c counts.
func (p *partition) crossEdges(visit func(cv, cw CompID)) {
	for v, row := range p.succ {
		cv := p.comp[v]
		for _, w := range row {
			if cw := p.comp[w]; cw != cv {
				visit(cv, cw)
			}
		}
	}
}

// addNode indexes a node the graph has just gained, as a singleton
// component with empty rows, and returns the component.
func (p *partition) addNode(v graph.NodeID) CompID {
	id := p.next
	p.next++
	p.idx.Add(v, int32(len(p.ids)))
	p.ids = append(p.ids, v)
	p.succ = append(p.succ, nil)
	p.pred = append(p.pred, nil)
	p.comp = append(p.comp, id)
	p.members[id] = []graph.NodeID{v}
	return id
}

// compOf returns the component of a node the partition has indexed.
func (p *partition) compOf(v graph.NodeID) CompID { return p.comp[p.idx.Of(v)] }

// runScoped runs Tarjan on the subgraph induced by the nodes labelled c,
// from members, those nodes in ascending order. Nodes and edges examined
// are metered.
func (p *partition) runScoped(c CompID, members []graph.NodeID) {
	p.meter.AddNodes(len(members))
	p.scope += len(members)
	p.roots = p.roots[:0]
	for _, v := range members {
		p.roots = append(p.roots, p.idx.Of(v))
	}
	p.t.run(p.succ, p.roots, p.comp, c)
	p.meter.AddEdges(p.t.edges)
}

// mint gives the components of the last run but the keep-th (keep < 0:
// all of them) fresh consecutive CompIDs in emission order and builds their
// member lists out of from, their nodes in ascending order. It returns the
// first new ID; the caller retires or shrinks whatever component the nodes
// were in before.
func (p *partition) mint(from []graph.NodeID, keep int) CompID {
	first, id := p.next, p.next
	backing := make([]graph.NodeID, len(from))
	parts := make([][]graph.NodeID, 0, p.t.numComps())
	lo := 0
	for i := range p.t.numComps() {
		if i == keep {
			continue
		}
		comp := p.t.comp(i)
		for _, v := range comp {
			p.comp[v] = id
		}
		parts = append(parts, backing[lo:lo:lo+len(comp)])
		lo += len(comp)
		id++
	}
	p.next = id
	for _, v := range from {
		i := p.comp[p.idx.Of(v)] - first
		parts[i] = append(parts[i], v)
	}
	for i, part := range parts {
		p.members[first+CompID(i)] = part
	}
	return first
}

// largest returns the component of comps with the most members, the first
// of them on a tie.
func (p *partition) largest(comps []CompID) CompID {
	keep := comps[0]
	for _, c := range comps[1:] {
		if len(p.members[c]) > len(p.members[keep]) {
			keep = c
		}
	}
	return keep
}

// union merges the components comps into keep, one of them, and retires the
// others: only their members are restamped, and keep's new member list is
// one merge of its old list with theirs, sorted apart. It returns how many
// nodes moved.
func (p *partition) union(keep CompID, comps []CompID) int {
	moved := p.moved[:0]
	for _, c := range comps {
		if c == keep {
			continue
		}
		for _, v := range p.members[c] {
			p.comp[p.idx.Of(v)] = keep
		}
		moved = append(moved, p.members[c]...)
		delete(p.members, c)
	}
	slices.Sort(moved)
	p.moved = moved
	old := p.members[keep]
	all := make([]graph.NodeID, 0, len(old)+len(moved))
	for _, v := range moved {
		i, _ := slices.BinarySearch(old, v)
		all = append(append(all, old[:i]...), v)
		old = old[i:]
	}
	p.members[keep] = append(all, old...)
	return len(moved)
}

// componentsSorted returns the partition in canonical form: members
// ascending, components ordered by smallest member. The inner slices are
// the live member lists and must not be modified.
func (p *partition) componentsSorted() [][]graph.NodeID {
	out := make([][]graph.NodeID, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, m)
	}
	sortBySmallest(out)
	return out
}

func sortBySmallest(cs [][]graph.NodeID) {
	slices.SortFunc(cs, func(a, b []graph.NodeID) int { return cmp.Compare(a[0], b[0]) })
}

// scratchPool serves passes that have no State to keep a scratch in.
var scratchPool = sync.Pool{New: func() any { return new(tarjan) }}

// Components computes SCC(G) from scratch with Tarjan: the batch baseline.
// It has no mirror to read: every edge examined is translated through the
// same index the engines use. It only reads the graph, so concurrent
// callers may run it between mutations, as any shared read.
func Components(g *graph.Graph) [][]graph.NodeID {
	ids := g.NodesSorted()
	idx := graph.IndexNodes(ids)
	t := scratchPool.Get().(*tarjan)
	defer scratchPool.Put(t)
	t.run(t.collect(len(ids), func(v int32, row []int32) []int32 {
		for _, w := range g.SuccessorsSorted(ids[v]) {
			row = append(row, idx.Of(w))
		}
		return row
	}), nil, nil, 0)
	label := make([]int32, len(ids))
	backing := make([]graph.NodeID, len(ids))
	out := make([][]graph.NodeID, t.numComps())
	for i := range out {
		comp := t.comp(i)
		for _, v := range comp {
			label[v] = int32(i)
		}
		out[i] = backing[:0:len(comp)]
		backing = backing[len(comp):]
	}
	for i, v := range ids { // ascending, so every component fills ascending
		out[label[i]] = append(out[label[i]], v)
	}
	sortBySmallest(out)
	return out
}
