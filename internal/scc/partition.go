package scc

import (
	"cmp"
	"slices"
	"sync"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// partition is the dense node index and the component membership over it,
// with the Tarjan scratch that partitions and re-partitions it. State and
// the DynSCC baseline both maintain their contracted graphs on top of one.
type partition struct {
	g     *graph.Graph
	meter *cost.Meter
	// ids and idx are the two directions of the dense index. Build-time
	// nodes are indexed in ascending NodeID order; later nodes append.
	ids []graph.NodeID
	idx map[graph.NodeID]int32
	// comp maps a dense index to its component.
	comp []CompID
	// members lists each component's nodes in ascending NodeID order. A
	// published slice is immutable: splits and merges build new ones.
	members map[CompID][]graph.NodeID
	next    CompID
	// t is the scratch of the passes over the graph; its result stays
	// readable until the next one. roots is runScoped's root list.
	t     tarjan
	roots []int32
}

// init indexes g's nodes and partitions them with one Tarjan run; the
// components take CompIDs 0..k-1 in emission (reverse topological) order.
// The run's num/low/desc/parent stay in p.t for the caller to adopt.
func (p *partition) init(g *graph.Graph, meter *cost.Meter) {
	p.g, p.meter = g, meter
	// Tarjan needs the global ascending node order; collect it per shard
	// across the worker pool (identical output to NodesSorted). The DFS
	// itself stays sequential — IncSCC's certificate is order-dependent.
	p.ids = g.NodesSortedParallel()
	p.idx = indexOf(p.ids)
	p.comp = make([]CompID, len(p.ids))
	p.members = make(map[CompID][]graph.NodeID)
	runAll(&p.t, g, p.ids, p.idx)
	p.mint(p.ids)
}

// indexOf inverts an id list.
func indexOf(ids []graph.NodeID) map[graph.NodeID]int32 {
	idx := make(map[graph.NodeID]int32, len(ids))
	for i, v := range ids {
		idx[v] = int32(i)
	}
	return idx
}

// runAll runs the kernel over the whole graph, ids being all its nodes in
// ascending order and idx their positions.
func runAll(t *tarjan, g *graph.Graph, ids []graph.NodeID, idx map[graph.NodeID]int32) {
	t.run(len(ids), nil, func(v int32, row []int32) []int32 {
		for _, w := range g.SuccessorsSorted(ids[v]) {
			row = append(row, idx[w])
		}
		return row
	})
}

// crossEdges calls visit with the components of every edge of the graph
// that joins two of them: the edges G_c counts.
func (p *partition) crossEdges(visit func(cv, cw CompID)) {
	for v, id := range p.ids {
		cv := p.comp[v]
		for _, w := range p.g.SuccessorsSorted(id) {
			if cw := p.compOf(w); cw != cv {
				visit(cv, cw)
			}
		}
	}
}

// addNode indexes a node the graph has just gained, as a singleton
// component, and returns the component.
func (p *partition) addNode(v graph.NodeID) CompID {
	i := int32(len(p.ids))
	id := p.next
	p.next++
	p.ids = append(p.ids, v)
	p.idx[v] = i
	p.comp = append(p.comp, id)
	p.members[id] = []graph.NodeID{v}
	return id
}

// compOf returns the component of a node the partition has indexed.
func (p *partition) compOf(v graph.NodeID) CompID { return p.comp[p.idx[v]] }

// runScoped runs Tarjan on the subgraph induced by component c, from its
// members in ascending order. Nodes and edges examined are metered.
func (p *partition) runScoped(c CompID) {
	members := p.members[c]
	p.meter.AddNodes(len(members))
	p.roots = p.roots[:0]
	for _, v := range members {
		p.roots = append(p.roots, p.idx[v])
	}
	p.t.run(len(p.ids), p.roots, func(v int32, row []int32) []int32 {
		succ := p.g.SuccessorsSorted(p.ids[v])
		p.meter.AddEdges(len(succ))
		for _, w := range succ {
			if j := p.idx[w]; p.comp[j] == c {
				row = append(row, j)
			}
		}
		return row
	})
}

// mint gives the components of the last run fresh consecutive CompIDs in
// emission order and builds their member lists out of from, the run's
// nodes in ascending order. It returns the first new ID; the caller
// retires whatever component the nodes were in before.
func (p *partition) mint(from []graph.NodeID) CompID {
	first := p.next
	k := p.t.numComps()
	p.next += CompID(k)
	for i := 0; i < k; i++ {
		for _, v := range p.t.comp(i) {
			p.comp[v] = first + CompID(i)
		}
	}
	parts := p.t.carve()
	for _, v := range from {
		i := p.comp[p.idx[v]] - first
		parts[i] = append(parts[i], v)
	}
	for i, part := range parts {
		p.members[first+CompID(i)] = part
	}
	return first
}

// union retires the listed components into one fresh component and
// returns its ID and members.
func (p *partition) union(comps []CompID) (CompID, []graph.NodeID) {
	id := p.next
	p.next++
	n := 0
	for _, c := range comps {
		n += len(p.members[c])
	}
	all := make([]graph.NodeID, 0, n)
	for _, c := range comps {
		for _, v := range p.members[c] {
			p.comp[p.idx[v]] = id
		}
		all = append(all, p.members[c]...)
		delete(p.members, c)
	}
	slices.Sort(all)
	p.members[id] = all
	return id, all
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

// carve cuts one backing array into an empty slice per component of the
// last run, each with room for exactly that component.
func (t *tarjan) carve() [][]graph.NodeID {
	backing := make([]graph.NodeID, len(t.order))
	parts := make([][]graph.NodeID, t.numComps())
	lo := int32(0)
	for i, hi := range t.ends {
		parts[i] = backing[lo:lo:hi]
		lo = hi
	}
	return parts
}

// scratchPool serves passes that have no State to keep a scratch in.
var scratchPool = sync.Pool{New: func() any { return new(tarjan) }}

// Components computes SCC(G) from scratch with Tarjan: the batch baseline.
// It reads the graph's sorted adjacency, so concurrent callers need
// PrepareConcurrentReads after the last mutation, as for any shared read.
func Components(g *graph.Graph) [][]graph.NodeID {
	ids := g.NodesSorted()
	t := scratchPool.Get().(*tarjan)
	defer scratchPool.Put(t)
	runAll(t, g, ids, indexOf(ids))
	label := make([]int32, len(ids))
	for i := 0; i < t.numComps(); i++ {
		for _, v := range t.comp(i) {
			label[v] = int32(i)
		}
	}
	out := t.carve()
	for i, v := range ids { // ascending, so every component fills ascending
		out[label[i]] = append(out[label[i]], v)
	}
	sortBySmallest(out)
	return out
}
