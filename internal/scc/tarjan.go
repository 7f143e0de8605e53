// Package scc implements strongly connected component maintenance after
// Fan, Hu & Tian (SIGMOD 2017, Section 5.3): Tarjan's batch algorithm [43]
// extended with the auxiliary structures the paper maintains (num, lowlink,
// DFS-tree parents, edge classification, a contracted graph G_c with edge
// counters and topological ranks), and the relatively bounded incremental
// algorithms IncSCC+ (Fig. 7), IncSCC− and batch IncSCC, plus the DynSCC
// baseline used in the experiments.
//
// Data layout. Every node has an engine-local dense index (partition.go):
// Build assigns 0..n-1 in ascending NodeID order and a node created by an
// insertion takes the next free index; NodeID → index is graph.NodeIndex, an
// array lookup for IDs issued from zero and a map only for negative or huge
// ones (rpq numbers its nodes through the same type). The index is
// deliberately not the graph's slot, which interleaves shards: SetShards
// and a snapshot reload renumber slots, and an index that followed them
// would make the DFS order — hence the maintained certificate and the
// work metered — depend on the deployment shape. comp (partition.go) and
// num, low and parent (IncSCC−'s, split.go) are slices over the index; a
// component's members are one ascending []NodeID that is never modified
// once published (splits and merges build new slices), so ΔO, MembersOf
// and WriteAnswer hand it out without a copy, and "is w in component c" is
// comp[i] == c. G_c, its counters and its ranks are keyed by CompID and
// live in order.go (IncSCC+), which alone reads or writes them; the entry
// points and ΔO are inc.go's.
//
// The mirror. Beside the index the engine keeps the graph's adjacency in
// index space: per node a successor row and a predecessor row of int32
// indices, built once by Build (rows cut from one backing array each) and
// changed in one place, partition.applyEdge, which replays an edge update
// the graph has taken onto the two rows it sits in; a new node starts with
// empty rows. Every pass — split.go's scoped repair, chkReach's lowlink
// walk, the bidirectional searches of IncSCC− (successor rows forward,
// predecessor rows backward) and a split's or a peel's move of the G_c
// counters, order.go's cross-edge count, DynSCC — walks these rows and
// nothing else, so an edge examined is a slice element and a scoped pass
// over a component whose IDs are direct-indexed probes no hash table at
// all. The graph is advanced — batch validated, nodes created, edges
// applied — before the repair and outside it: by Apply (graph.Advance) for
// a state that owns its graph, by the unit loop (ApplyUnitwise, one
// graph.Apply before each repair) and DynSCC update by update, by the store
// for a state repaired in place on a graph it shares (Repair). The repair
// recognises a created node by its absence from the index and reads
// nothing else from the graph; CheckInvariants audits every row against
// SuccessorsSorted/PredecessorsSorted.
//
// Row order. A row is kept in ascending order of its entries' NodeIDs, not
// of the indices it stores. The two agree for build-time nodes and part ways
// as soon as a late node has a small ID; NodeID order is the order
// SuccessorsSorted yields, and the one order that does not depend on when
// a node arrived relative to a rebuild. Same order, same DFS, same num/low/parent, same minted CompIDs,
// same Meter totals: TestMeteredWorkDeterministic pins them.
//
// One Tarjan. Every pass — Build, the Components batch rival, the
// component-scoped repair of IncSCC− and its pass over the closed side a
// peel carves off, DynSCC, and the passes over the affected area of G_c
// (candidates numbered 0..k-1) — is the kernel in this file, run over rows of indices: the mirror's successor rows, walked in
// place (a scoped pass skips the entries outside its component), or, for a
// digraph that is not stored as rows — G_c, and the graph Components is
// handed, which no engine mirrors — rows collected into the scratch's arena
// first. Its working state is a reusable scratch: epoch stamps instead of
// visited/on-stack sets, a frame stack of (node, position in its row), and
// the components as ranges of one backing slice. A partition keeps the
// scratch of its graph passes, whose result a split is still reading while
// it allocates ranks; passes over G_c and Components borrow one from a
// pool. A warm pass allocates nothing.
package scc

import "math"

// tarjan is the kernel's scratch. The result of the last run stays
// readable until the next one: num, low, desc and parent for every node
// the run reached, and the components in emission order.
type tarjan struct {
	// stamp[v] is below epoch for an unvisited node, epoch while v is on
	// the node stack, and epoch+1 once v's component has been emitted.
	epoch uint32
	stamp []uint32
	// num is the DFS preorder number, from 1; low is Tarjan's lowlink;
	// desc the largest num in the node's DFS subtree; parent the DFS-tree
	// parent, or -1 for the root of a DFS tree.
	num, low, desc, parent []int32
	stack                  []int32
	frames                 []frame
	// edges is the total length of the rows of the nodes the run reached:
	// the edges it examined.
	edges int
	// order lists the components back to back in emission order: a
	// component appears only after every component it can reach (reverse
	// topological order); component i is order[ends[i-1]:ends[i]].
	order []int32
	ends  []int32
	// adj and arena are the rows collect builds for a pass whose digraph is
	// not stored as rows.
	adj   [][]int32
	arena []int32
}

// frame is one node on the DFS path with the position in its row the DFS
// reads next.
type frame struct {
	v, next int32
}

// numComps returns the number of components the last run emitted.
func (t *tarjan) numComps() int { return len(t.ends) }

// comp returns the i-th emitted component; the slice is valid until the
// next run.
func (t *tarjan) comp(i int) []int32 {
	lo := int32(0)
	if i > 0 {
		lo = t.ends[i-1]
	}
	return t.order[lo:t.ends[i]]
}

// begin readies the scratch for a run over indices below n.
func (t *tarjan) begin(n int) {
	if len(t.stamp) < n {
		size := n + n/2 + 8
		t.stamp = make([]uint32, size)
		t.num = make([]int32, size)
		t.low = make([]int32, size)
		t.desc = make([]int32, size)
		t.parent = make([]int32, size)
	}
	if t.epoch >= math.MaxUint32-3 { // stale stamps could collide after a wrap
		clear(t.stamp)
		t.epoch = 0
	}
	t.epoch += 2
	t.stack = t.stack[:0]
	t.frames = t.frames[:0]
	t.order = t.order[:0]
	t.ends = t.ends[:0]
	t.edges = 0
}

// collect builds the rows of a digraph on indices 0..n-1 that is not stored
// as rows — G_c, or a graph no engine mirrors — in the scratch's own arena:
// expand appends the successors of v to row and returns it. The rows are
// valid until the next collect.
func (t *tarjan) collect(n int, expand func(v int32, row []int32) []int32) [][]int32 {
	t.adj = t.adj[:0]
	t.arena = t.arena[:0]
	for v := int32(0); v < int32(n); v++ {
		lo := len(t.arena)
		// A row cut before the arena moved keeps the array it was cut from,
		// with its contents: rows are only read.
		t.arena = expand(v, t.arena)
		t.adj = append(t.adj, t.arena[lo:len(t.arena):len(t.arena)])
	}
	return t.adj
}

// run performs an iterative Tarjan over the digraph whose node v has the
// successors rows[v], walked in place and in row order — so callers whose
// rows are ordered deterministically get deterministic runs. DFS trees are
// started from roots in slice order (nil: from every index in ascending
// order). With comp non-nil the run is confined to the subgraph induced by
// component c: a successor w with comp[w] != c is skipped.
func (t *tarjan) run(rows [][]int32, roots []int32, comp []CompID, c CompID) {
	t.begin(len(rows))
	epoch := t.epoch
	index := int32(1)
	visit := func(v, parent int32) {
		t.stamp[v] = epoch
		t.num[v] = index
		t.low[v] = index
		t.parent[v] = parent
		index++
		t.stack = append(t.stack, v)
		t.frames = append(t.frames, frame{v: v})
		t.edges += len(rows[v])
	}
	nroots := len(roots)
	if roots == nil {
		nroots = len(rows)
	}
	for r := 0; r < nroots; r++ {
		root := int32(r)
		if roots != nil {
			root = roots[r]
		}
		if t.stamp[root] >= epoch {
			continue
		}
		visit(root, -1)
		for len(t.frames) > 0 {
			f := &t.frames[len(t.frames)-1]
			v := f.v
			row := rows[v]
			descended := false
			for next := int(f.next); next < len(row); {
				w := row[next]
				next++
				if comp != nil && comp[w] != c {
					continue
				}
				if st := t.stamp[w]; st < epoch {
					f.next = int32(next)
					visit(w, v) // may move t.frames: f is dead past here
					descended = true
					break
				} else if st == epoch && t.num[w] < t.low[v] {
					t.low[v] = t.num[w]
				}
			}
			if descended {
				continue
			}
			// v is finished: drop its frame.
			t.frames = t.frames[:len(t.frames)-1]
			t.desc[v] = index - 1
			if t.low[v] == t.num[v] {
				for {
					w := t.stack[len(t.stack)-1]
					t.stack = t.stack[:len(t.stack)-1]
					t.stamp[w] = epoch + 1
					t.order = append(t.order, w)
					if w == v {
						break
					}
				}
				t.ends = append(t.ends, int32(len(t.order)))
			}
			if len(t.frames) > 0 {
				if p := &t.frames[len(t.frames)-1]; t.low[v] < t.low[p.v] {
					t.low[p.v] = t.low[v]
				}
			}
		}
	}
}
