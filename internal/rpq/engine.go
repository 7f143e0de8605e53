// Package rpq implements regular path queries (RPQ, Section 2.1 of Fan,
// Hu & Tian, SIGMOD 2017) and their incrementalization (Section 5.2).
//
// The batch algorithm RPQ_NFA [29,33] compiles the query to an ε-free NFA
// M_Q and, for every source node u whose label can start a word of L(Q),
// runs a BFS over the intersection (product) graph of G and M_Q. A match
// (u, w) holds when some product node (w, s) with s accepting is reachable
// from u's seed states.
//
// The auxiliary structure is the marking pmark_e: per source u, node v and
// state s an entry (dist, cpre, mpre), where dist is the shortest product
// distance from u's seeds, cpre the product predecessors that carry
// entries, and mpre the subset on shortest paths. IncRPQ (Fig. 5) repairs
// these markings: identAff walks mpre supports broken by deletions,
// potentials are recomputed from unaffected cpre members, insertions seed
// the same per-source queue, and a Dijkstra-style settle decides every
// affected distance at most once — the cost profile that makes IncRPQ
// bounded relative to RPQ_NFA.
//
// # Layout
//
// The engine numbers the graph's nodes densely (ids/idx, ascending NodeID
// at build, later nodes appended; deliberately not the graph's slot, which
// resharding moves) and caches each node's LabelID beside it — labels never
// change under Apply — so a traversal translates each neighbour once
// (NodeID → index: an array lookup for IDs issued from zero, a hash probe
// otherwise: graph.NodeIndex) and pays nothing for its label. A product node
// (v, s) packs into one uint64 key, (index(v)+1) << sbits | s, where sbits
// covers the automaton's states; a source's marking table is one
// open-addressed array of 16-byte pointer-free slots {key, dist, nm}
// (table.go). There is no per-entry heap object and no per-entry set, and
// the tables are invisible to the garbage collector's scan.
//
// cpre and mpre are not stored. cpre(w, s₂) is what the graph and the
// automaton already determine: the entries (x, s) with x a predecessor of
// w and s ∈ PrevID(s₂, l(w)). Enumerating it costs in-degree(w) × |PrevID|
// table probes, which only the potentials pass (per affected entry),
// Witness (per path step) and Check pay — at a node with in-degree in the
// thousands an affected entry is that many probes, where the stored set
// cost one iteration over the (fewer) members that carry entries. mpre is
// only ever asked whether it is empty, so it is kept as a count:
//
//	nm(k) = |{p ∈ cpre(k) : dist(p)+1 = dist(k)}|
//
// Seeds have dist 0 and nm 0 (seed ⇔ dist = 0: every other entry is
// created at some dist(p)+1); every other entry at rest has nm ≥ 1.
// identAff decrements nm where the stored mpre lost a member and declares
// an entry affected when it reaches 0; the potentials pass sets it to the
// number of unaffected predecessors at the minimum; a relaxation sets it to
// 1 when it lowers dist and increments it on a tie. Because every product
// node is popped at most once, with its final distance, each predecessor is
// counted exactly once and settle never rescans cpre: the batch build
// reads no predecessor list at all.
//
// The inserted-edge rule. The graph is at G ⊕ ΔG before Repair starts —
// moved there by Apply when the engine owns it, by the store when several
// engines share it; the repair itself never mutates it — so identAff's walk over a node's successors and the potentials scan over its
// predecessors both see ΔG⁺, edges that were in nobody's mpre. Both skip
// them (Engine.ins, one sorted edge set per batch, read-only during the
// fan-out); only insertion seeding and settle account for them. ΔG⁻ is
// gone from the graph, so only identAff's explicit loop over the deleted
// edges decrements for those. Seeding computes every candidate from the
// distances as they stand before any insertion is applied: a tail that
// another insertion of the batch lowers relaxes its successors once more
// when it is popped, at a strictly smaller candidate.
//
// The match set is not stored either: (u, w) ∈ Q(G) iff u's table has an
// entry (w, s) with s accepting. A repair logs the pairs whose answer it
// flips — that is ΔO — and the engine keeps their count.
//
// The queue of settle is monotone and its weights are 1, so it is a sorted
// list of the initial pushes merged with a FIFO of the pushes made while
// settling (scratch.go) instead of an indexed heap; a superseded item is
// skipped when popped.
//
// Per worker, pooled across batches (Engine.scratch): that queue, the
// affected list, the gathered insertion relaxations, the log of entries
// created and removed (replayed serially into the inverted index srcAt),
// the match transitions and the meter. Per batch, pooled on the engine: the
// routing of updates to sources (sorted packed pairs, no map), the
// inserted-edge set and the task list. A repair allocates only where a
// table or an index list grows and where ΔO is returned.
package rpq

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/rex"
)

// Unreachable is the distance of entries scheduled for removal.
const Unreachable = int(1) << 30

const unreachable = int32(Unreachable)

// Pair is a query answer: Dst is reachable from Src along a path whose
// label string is in L(Q).
type Pair struct {
	Src, Dst graph.NodeID
}

func comparePairs(a, b Pair) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}

// Engine maintains Q(G) and the markings under updates.
type Engine struct {
	g   *graph.Graph
	ast *rex.Ast
	nfa *rex.NFA
	// accStates lists the accepting states; sbits is the width of the state
	// field of a key.
	accStates []int
	sbits     uint
	// ids, idx and lbl are the dense node index: ids[i] is the i-th node,
	// idx its inverse, lbl[i] the node's label.
	ids []graph.NodeID
	idx graph.NodeIndex
	lbl []graph.LabelID
	// marks[i] is the marking table of source ids[i]; nil when the node's
	// label starts no word of L(Q).
	marks []*table
	// numMatches is |Q(G)|. The match set itself is not stored: (u, w) is a
	// match iff u's table has an entry (w, s) with s accepting.
	numMatches int
	// srcAt[i] lists, ascending, the sources with an entry at node ids[i].
	// It is the inverted index that lets Apply repair only the sources
	// whose markings an update can possibly touch, keeping the cost
	// proportional to AFF rather than to the number of sources.
	srcAt [][]int32
	// sorted memoizes Matches against the graph mutation generation (the
	// match set only moves in a repair, which follows a graph mutation).
	sorted graph.GenCache[[]Pair]
	meter  *cost.Meter

	// Pooled across batches: one scratch per worker, and Apply's routing.
	scratch []*scratch
	routes  []uint64
	tasks   []task
	// ins is ΔG⁺ of the batch under repair, sorted by (From, To).
	ins []graph.Edge
}

// task is one source's share of a fan-out: a repair over routes[lo:hi], or
// (lo == hi) the build of a new source. The worker records where in its
// scratch the source's deferred global effects lie.
type task struct {
	src    int32
	lo, hi int32
	worker int32
	// events and trans delimit the worker's logs; built is the table of a
	// newly built source.
	evLo, evHi, trLo, trHi int32
	built                  *table
}

// NewEngine compiles the query and runs the batch algorithm RPQ_NFA.
// The meter may be nil.
//
// Each source node's product BFS touches only that source's marking table,
// so the evaluation fans out per source across g.Parallelism() workers.
// Engine-global state — the inverted index, the match set — is updated by
// a serial merge of per-source logs afterwards, in source order, making
// the built engine identical to a sequential evaluation.
func NewEngine(g *graph.Graph, ast *rex.Ast, meter *cost.Meter) (*Engine, error) {
	if ast == nil {
		return nil, fmt.Errorf("rpq: nil query")
	}
	if err := ast.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g:     g,
		ast:   ast,
		nfa:   rex.Compile(ast),
		meter: meter,
	}
	e.sbits = uint(max(1, bits.Len(uint(e.nfa.NumStates()-1))))
	for s := 0; s < e.nfa.NumStates(); s++ {
		if e.nfa.Accepting(s) {
			e.accStates = append(e.accStates, s)
		}
	}
	workers := g.Parallelism()
	// Nodes in ascending order.
	e.ids = g.NodesSorted()
	n := len(e.ids)
	e.lbl = make([]graph.LabelID, n)
	e.marks = make([]*table, n)
	e.srcAt = make([][]int32, n)
	for i, v := range e.ids {
		e.idx.Add(v, int32(i))
		e.lbl[i] = g.LabelIDAt(v)
		if e.isSource(int32(i)) {
			e.tasks = append(e.tasks, task{src: int32(i)})
		}
	}
	e.runTasks(workers, nil)
	e.mergeTasks(nil)
	return e, nil
}

// Parse is a convenience wrapper: NewEngine with a textual query.
func Parse(g *graph.Graph, query string, meter *cost.Meter) (*Engine, error) {
	ast, err := rex.Parse(query)
	if err != nil {
		return nil, err
	}
	return NewEngine(g, ast, meter)
}

func (e *Engine) pack(i int32, s int) key { return key(uint64(i+1)<<e.sbits | uint64(s)) }
func (e *Engine) nodeOf(k key) int32      { return int32(k&^affBit>>e.sbits) - 1 }
func (e *Engine) stateOf(k key) int       { return int(k & (1<<e.sbits - 1)) }

// isSource reports whether node i's label can start a word of L(Q).
func (e *Engine) isSource(i int32) bool {
	return len(e.nfa.NextID(e.nfa.Start(), e.lbl[i])) > 0
}

// runTasks fans e.tasks out across the workers against the read-shared
// graph: each task repairs (or builds) one source, writing only that
// source's table and the worker's scratch. Engine-global state is
// untouched until the serial mergeTasks.
func (e *Engine) runTasks(workers int, batch graph.Batch) {
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, &scratch{})
	}
	for _, w := range e.scratch[:workers] {
		w.reset()
	}
	graph.ParallelFor(workers, len(e.tasks), func(worker, i int) {
		t := &e.tasks[i]
		r := srcRepair{e: e, src: t.src, scratch: e.scratch[worker]}
		t.worker = int32(worker)
		t.evLo, t.trLo = int32(len(r.events)), int32(len(r.trans))
		if t.lo == t.hi {
			t.built = r.build()
		} else {
			r.tab = e.marks[t.src]
			r.repair(batch, e.routes[t.lo:t.hi])
		}
		t.evHi, t.trHi = int32(len(r.events)), int32(len(r.trans))
	})
}

// mergeTasks folds the workers' deferred global effects into the engine,
// task by task: the tables of new sources, the inverted-index changes and
// the match transitions (also appended to d when non-nil). Distinct
// sources produce disjoint pairs and commutative index changes, so the
// merged engine matches a sequential run exactly.
func (e *Engine) mergeTasks(d *Delta) {
	for i := range e.tasks {
		t := &e.tasks[i]
		w := e.scratch[t.worker]
		if t.built != nil {
			e.marks[t.src] = t.built
		}
		tab := e.marks[t.src]
		for _, k := range w.events[t.evLo:t.evHi] {
			// A created entry is still there: a repair removes nothing it
			// created. A removed one may have left others at its node.
			v := e.nodeOf(k)
			e.indexSource(v, t.src, k&removed == 0 || e.hasEntryAt(tab, v))
		}
		for _, tr := range w.trans[t.trLo:t.trHi] {
			p := Pair{e.ids[t.src], e.ids[tr.dst]}
			if tr.added {
				e.numMatches++
			} else {
				e.numMatches--
			}
			if d == nil {
				continue
			}
			if tr.added {
				d.Added = append(d.Added, p)
			} else {
				d.Removed = append(d.Removed, p)
			}
		}
		t.built = nil
	}
	for _, w := range e.scratch {
		e.meter.Merge(&w.meter)
		w.meter.Reset()
	}
	e.tasks = e.tasks[:0]
}

// hasEntryAt reports whether tab has an entry at node i in any state.
func (e *Engine) hasEntryAt(tab *table, i int32) bool {
	for s := 1; s < e.nfa.NumStates(); s++ { // nothing enters the initial state
		if tab.get(e.pack(i, s)) != nil {
			return true
		}
	}
	return false
}

// indexSource makes src a member of srcAt[i], or not.
func (e *Engine) indexSource(i, src int32, member bool) {
	at := e.srcAt[i]
	pos, found := slices.BinarySearch(at, src)
	switch {
	case member && !found:
		e.srcAt[i] = slices.Insert(at, pos, src)
	case !member && found:
		e.srcAt[i] = slices.Delete(at, pos, pos+1)
	}
}

// srcRepair is the context of one source's batch build or incremental
// repair on one worker. All mutations land in the source's own marking
// table and the worker's scratch (meter, queue, logs), so any number of
// srcRepairs run concurrently against the read-shared graph.
type srcRepair struct {
	e   *Engine
	src int32
	tab *table
	*scratch
}

// build computes the marking table of source r.src from scratch: seed
// entries for the states δ(s0, l(u)), then the product BFS/settle. Used by
// the batch build and for source nodes introduced by insertions.
func (r *srcRepair) build() *table {
	e := r.e
	r.tab = &table{}
	for _, s := range e.nfa.NextID(e.nfa.Start(), e.lbl[r.src]) {
		k := e.pack(r.src, s)
		r.tab.put(k) // dist 0, nm 0: a seed
		r.meter.AddEntries(1)
		r.noteCreated(k)
		r.push(k, 0)
	}
	r.settle()
	return r.tab
}

// noteCreated logs a new entry for the inverted index and, when it is the
// first accepting entry at its node, the match it creates.
func (r *srcRepair) noteCreated(k key) {
	r.events = append(r.events, k)
	r.noteAccepting(k, true)
}

// noteRemoved is the inverse of noteCreated; k is already deleted.
func (r *srcRepair) noteRemoved(k key) {
	r.events = append(r.events, k|removed)
	r.noteAccepting(k, false)
}

// noteAccepting records the match transition of (src, node of k) when k is
// accepting and no other accepting state has an entry at that node. Within
// one repair a pair moves at most once: entries are only removed at the
// very end, never one the same repair created.
func (r *srcRepair) noteAccepting(k key, added bool) {
	e := r.e
	s := e.stateOf(k)
	if !e.nfa.Accepting(s) {
		return
	}
	v := e.nodeOf(k)
	for _, s2 := range e.accStates {
		if s2 != s && r.tab.get(e.pack(v, s2)) != nil {
			return
		}
	}
	r.trans = append(r.trans, transition{v, added})
}

// settle runs the shared queue phase: it pops product nodes in
// nondecreasing distance order and relaxes their product successors,
// creating entries on first reach (Fig. 5 line 9). With all-zero seeds this
// is exactly the batch BFS of RPQ_NFA.
func (r *srcRepair) settle() {
	e, tab := r.e, r.tab
	r.q.start()
	for {
		k, dist, ok := r.q.pop()
		if !ok {
			break
		}
		if ent := tab.get(k); ent == nil || ent.dist != dist {
			continue // superseded
		}
		r.meter.AddNodes(1)
		r.meter.AddHeapOps(1)
		s, cand := e.stateOf(k), dist+1
		for _, y := range e.g.SuccessorsSorted(e.ids[e.nodeOf(k)]) {
			r.meter.AddEdges(1)
			iy := e.idx.Of(y)
			for _, sy := range e.nfa.NextID(s, e.lbl[iy]) {
				r.relax(e.pack(iy, sy), cand)
			}
		}
	}
}

// push queues entry k at distance dist.
func (r *srcRepair) push(k key, dist int32) {
	r.meter.AddHeapOps(1)
	r.q.push(k, dist)
}

// relax offers distance cand, through one more predecessor, to entry k:
// created on first reach, nm reset where cand improves dist, incremented on
// a tie.
func (r *srcRepair) relax(k key, cand int32) {
	ent, created := r.tab.put(k)
	switch {
	case created:
		ent.dist, ent.nm = cand, 1
		r.meter.AddEntries(1)
		r.noteCreated(k)
		r.push(k, cand)
	case cand < ent.dist:
		ent.dist, ent.nm = cand, 1
		r.meter.AddEntries(1)
		r.push(k, cand)
	case cand == ent.dist:
		ent.nm++
	}
}

// Graph returns the underlying graph: mutated by Apply* when the engine
// owns it, by its owner alone when the engine is only ever Repair-ed.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Query returns the compiled query.
func (e *Engine) Query() *rex.Ast { return e.ast }

// Size returns |Q(G)|, the number of match pairs.
func (e *Engine) Size() int { return e.numMatches }

// HasMatch reports whether (src, dst) ∈ Q(G).
func (e *Engine) HasMatch(src, dst graph.NodeID) bool {
	for _, s := range e.accStates {
		if e.entry(src, dst, s) != nil {
			return true
		}
	}
	return false
}

// Matches returns Q(G) sorted by (Src, Dst). The slice is memoized
// against the graph's mutation generation — repeated calls between
// updates are O(1) — and shared: treat it as read-only; it is valid
// until the next Apply*.
func (e *Engine) Matches() []Pair {
	return e.sorted.Get(e.g, func() []Pair {
		out := make([]Pair, 0, e.numMatches)
		for iu, tab := range e.marks {
			if tab == nil {
				continue
			}
			for _, ent := range tab.slots {
				if ent.k != 0 && e.nfa.Accepting(e.stateOf(ent.k)) {
					out = append(out, Pair{e.ids[iu], e.ids[e.nodeOf(ent.k)]})
				}
			}
		}
		slices.SortFunc(out, comparePairs)
		return slices.Compact(out) // one pair per node, however many accepting states
	})
}

// Rows returns Q(G) as rows [src dst], sorted by (src, dst): the order
// and, through AppendRow, the bytes of WriteAnswer.
func (e *Engine) Rows() graph.Rows {
	ps := e.Matches()
	flat := make([]graph.NodeID, 0, 2*len(ps))
	for _, p := range ps {
		flat = append(flat, p.Src, p.Dst)
	}
	return graph.FlatRows(2, flat)
}

// CompareRows orders rows by (src, dst).
func (e *Engine) CompareRows(a, b []graph.NodeID) int {
	return comparePairs(Pair{a[0], a[1]}, Pair{b[0], b[1]})
}

// AppendRow appends the answer line of row: "pair <src> <dst>".
func (e *Engine) AppendRow(dst []byte, row []graph.NodeID) []byte {
	return graph.AppendRow(dst, "pair", row)
}

// WriteAnswer serializes Q(G) in canonical text form, one AppendRow line
// per match, sorted by (Src, Dst). Identical answers produce identical
// bytes regardless of how they were computed (build, repair, or recovery
// replay); the durability layer's parity checks rely on this. Safe under
// the read-share contract.
func (e *Engine) WriteAnswer(w io.Writer) error { return graph.WriteRows(w, e.Rows(), e.AppendRow) }

// BatchAnswer evaluates Q(G) from scratch and returns the match set: the
// RPQ_NFA baseline of the experiments.
func BatchAnswer(g *graph.Graph, ast *rex.Ast, meter *cost.Meter) ([]Pair, error) {
	e, err := NewEngine(g, ast, meter)
	if err != nil {
		return nil, err
	}
	return e.Matches(), nil
}

// entry returns source src's entry for (dst, s), or nil.
func (e *Engine) entry(src, dst graph.NodeID, s int) *slot {
	iu, ok := e.idx.Get(src)
	if !ok || e.marks[iu] == nil || s < 0 || s >= e.nfa.NumStates() {
		return nil
	}
	iv, ok := e.idx.Get(dst)
	if !ok {
		return nil
	}
	return e.marks[iu].get(e.pack(iv, s))
}

// Dist returns the shortest product distance recorded for (src, dst, s),
// or false when no marking exists. Tests use it to inspect pmark_e.
func (e *Engine) Dist(src, dst graph.NodeID, s int) (int, bool) {
	ent := e.entry(src, dst, s)
	if ent == nil {
		return 0, false
	}
	return int(ent.dist), true
}

// countMpre recomputes nm of the entry (w, s2) at distance dist in tab from
// the derived cpre.
func (e *Engine) countMpre(tab *table, w int32, s2 int, dist int32) int32 {
	var n int32
	prev := e.nfa.PrevID(s2, e.lbl[w])
	for _, x := range e.g.PredecessorsSorted(e.ids[w]) {
		ix := e.idx.Of(x)
		for _, s := range prev {
			if p := tab.get(e.pack(ix, s)); p != nil && p.dist+1 == dist {
				n++
			}
		}
	}
	return n
}

// Check audits the engine against a fresh batch build — the same source
// tables with the same keys, distances and seeds, and the same match set —
// and audits the invariants of the layout: every nm equals the count
// recomputed from the derived cpre, no affected flag outlives its repair,
// and the inverted index lists exactly the sources with an entry at each
// node.
func (e *Engine) Check() error {
	fresh, err := NewEngine(e.g.Clone(), e.ast, nil)
	if err != nil {
		return err
	}
	if len(e.ids) != e.g.NumNodes() {
		return fmt.Errorf("rpq: %d nodes indexed, graph has %d", len(e.ids), e.g.NumNodes())
	}
	count := func(marks []*table) (n int) {
		for _, t := range marks {
			if t != nil {
				n++
			}
		}
		return n
	}
	if got, want := count(e.marks), count(fresh.marks); got != want {
		return fmt.Errorf("rpq: %d source tables, batch rebuild has %d", got, want)
	}
	wantAt := make([][]int32, len(e.ids))
	for iu, tab := range e.marks {
		if tab == nil {
			continue
		}
		u := e.ids[iu]
		ft := fresh.marks[fresh.idx.Of(u)]
		if ft == nil {
			return fmt.Errorf("rpq: spurious source table for %d", u)
		}
		if ft.n != tab.n {
			return fmt.Errorf("rpq: source %d has %d entries, batch has %d", u, tab.n, ft.n)
		}
		for _, ent := range tab.slots {
			if ent.k == 0 {
				continue
			}
			iv, s := e.nodeOf(ent.k), e.stateOf(ent.k)
			v := e.ids[iv]
			if ent.affected() {
				return fmt.Errorf("rpq: source %d entry (%d,%d): stale affected flag", u, v, s)
			}
			fe := ft.get(fresh.pack(fresh.idx.Of(v), s))
			if fe == nil {
				return fmt.Errorf("rpq: source %d: spurious entry (%d,%d)", u, v, s)
			}
			if fe.dist != ent.dist {
				return fmt.Errorf("rpq: source %d entry (%d,%d): dist %d, batch says %d", u, v, s, ent.dist, fe.dist)
			}
			if seed := v == u && slices.Contains(e.nfa.NextID(e.nfa.Start(), e.lbl[iu]), s); seed != (ent.dist == 0) {
				return fmt.Errorf("rpq: source %d entry (%d,%d): dist %d, seed %v", u, v, s, ent.dist, seed)
			}
			if want := e.countMpre(tab, iv, s, ent.dist); ent.nm != want || fe.nm != want {
				return fmt.Errorf("rpq: source %d entry (%d,%d): nm %d, batch says %d, derived cpre has %d at dist-1",
					u, v, s, ent.nm, fe.nm, want)
			}
			if at := wantAt[iv]; len(at) == 0 || at[len(at)-1] != int32(iu) {
				wantAt[iv] = append(at, int32(iu))
			}
		}
	}
	// The tables agree, so the derived match sets do; the count is kept.
	if got := len(e.Matches()); got != e.numMatches || fresh.numMatches != got {
		return fmt.Errorf("rpq: counted %d matches, the tables hold %d, batch counted %d", e.numMatches, got, fresh.numMatches)
	}
	for i, at := range wantAt {
		if !slices.Equal(at, e.srcAt[i]) {
			return fmt.Errorf("rpq: inverted index at node %d lists %d sources, want %d", e.ids[i], len(e.srcAt[i]), len(at))
		}
	}
	return nil
}
