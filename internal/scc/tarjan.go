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
// insertion takes the next free index. The index is deliberately not the
// graph's slot, which interleaves shards: SetShards, MoveShard and a
// snapshot reload renumber slots, and an index that followed them would
// make the DFS order — hence the maintained certificate and the work
// metered — depend on the deployment shape. comp, num, low, desc and parent
// are slices over the index; a component's members are one ascending
// []NodeID that is never modified once published (splits and merges build
// new slices), so ΔO, MembersOf and WriteAnswer hand it out without a copy,
// and "is w in component c" is comp[i] == c.
//
// One Tarjan. Every pass — Build, the Components batch rival, the
// component-scoped repair of IncSCC−, DynSCC, and the passes over the
// affected area of G_c (candidates numbered 0..k-1) — is the kernel in this
// file, run over indices 0..n-1 of whatever the caller numbered. Its
// working state is a reusable scratch: epoch stamps instead of
// visited/on-stack sets, a frame stack whose frames hold a cursor into one
// shared arena of successor rows, and the components as ranges of one
// backing slice. A partition keeps the scratch of its graph passes, whose
// result a split is still reading while it allocates ranks; passes over
// G_c and Components borrow one from a pool. A warm pass allocates nothing
// and does one hash probe per edge examined (NodeID → index, paid when the
// caller's expand callback translates a node's row).
//
// Successor order. Passes over the graph read SuccessorsSorted, never
// Successors: the sorted view is allocation-free, and on a promoted
// adjacency set Successors walks a Go map, which made the DFS tree, and
// with it the metered work, differ from run to run.
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
	// rows is the arena of successor rows of the nodes on the DFS path,
	// in path order; a node's row is appended when the node is visited and
	// cut off when it finishes.
	rows []int32
	// order lists the components back to back in emission order: a
	// component appears only after every component it can reach (reverse
	// topological order); component i is order[ends[i-1]:ends[i]].
	order []int32
	ends  []int32
}

// frame is one node on the DFS path with the unread part of its row.
type frame struct {
	v, next, end int32
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
	t.rows = t.rows[:0]
	t.order = t.order[:0]
	t.ends = t.ends[:0]
}

// run performs an iterative Tarjan over the digraph on indices 0..n-1.
// DFS trees are started from roots in slice order (nil: from 0..n-1 in
// ascending order). expand appends the successors of v to row and returns
// it; it is called once per node reached, and the order in which it lists
// successors is the order the DFS follows, so callers that list them
// deterministically get deterministic runs.
func (t *tarjan) run(n int, roots []int32, expand func(v int32, row []int32) []int32) {
	t.begin(n)
	epoch := t.epoch
	index := int32(1)
	visit := func(v, parent int32) {
		t.stamp[v] = epoch
		t.num[v] = index
		t.low[v] = index
		t.parent[v] = parent
		index++
		t.stack = append(t.stack, v)
		start := int32(len(t.rows))
		t.rows = expand(v, t.rows)
		t.frames = append(t.frames, frame{v: v, next: start, end: int32(len(t.rows))})
	}
	nroots := len(roots)
	if roots == nil {
		nroots = n
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
			descended := false
			for f.next < f.end {
				w := t.rows[f.next]
				f.next++
				if st := t.stamp[w]; st < epoch {
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
			// v is finished: drop its frame and its row.
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
			if len(t.frames) == 0 {
				t.rows = t.rows[:0]
				continue
			}
			p := &t.frames[len(t.frames)-1]
			t.rows = t.rows[:p.end]
			if t.low[v] < t.low[p.v] {
				t.low[p.v] = t.low[v]
			}
		}
	}
}
