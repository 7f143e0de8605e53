package main

import (
	"slices"

	"incgraph"
)

// view is the daemon's read side: one immutable value per committed
// generation, swapped in by a single atomic pointer store after the
// in-memory apply and before the commit's reply leaves. query, answer, stat
// and health load the pointer and take no lock; a reader keeps the view it
// loaded for as long as it likes while later commits publish.
//
// An answer is held the way the paper defines its maintenance, as
// Q(G) ⊕ ΔO: base is Q(G) at the generation the base was cut, in canonical
// order, and chain the engines' own ΔO of every commit since. The commit
// path appends one value per class (publish) and converts nothing; a reader
// of "answer" makes rows of the chain and merges them with the base while it
// renders (incgraph.MergeRows).
type view struct {
	gen          uint64
	role         string
	hub          *incgraph.ClusterHub
	nodes, edges int
	classes      []classView // in attach order
}

type classView struct {
	size int // |Q(G)| at gen
	base incgraph.Rows
	// chain shares its array with the chains of earlier views, which are
	// prefixes of it: a publisher appends past their lengths, never inside.
	// A fold starts a new array.
	chain     []incgraph.RowDelta
	chainRows int
}

// A chain longer than foldMin rows plus 1/foldFrac of its base's is folded
// into a new base, off the commit path (fold). An answer then merges about
// that many rows at most, and a fold — one pass over base and chain — costs
// less than foldFrac+1 times the rows that accumulated since the last one:
// amortised, a constant per ΔO row, whatever the sizes. foldMin only keeps a
// small answer from being folded after every commit. What a chain holds on
// to is bounded by the same rule — for scc that is one superseded copy of
// the giant component per commit that moved it.
const (
	foldMin  = 16
	foldFrac = 4
)

// cutView returns the first view of a server: a primary's, with every base
// cut from what its engine holds now. publish fills in the rest.
func (s *server) cutView() *view {
	v := &view{role: rolePrimary, classes: make([]classView, len(s.d.Engines()))}
	for i, m := range s.d.Engines() {
		v.classes[i].base = m.Rows()
	}
	return v
}

// publish swaps in the view of the state as it is now. With applied, the
// engines have just applied one batch, and its ΔO goes onto every chain;
// otherwise the answers are those of the current view. edit, when non-nil,
// changes the handles.
//
// Publishers run one at a time and in commit order: every one of them holds
// commitMu, except start-up, which runs alone — as does every mutator of the
// base graph and the engines they read.
func (s *server) publish(applied bool, edit func(v *view)) {
	v := s.nextView()
	g := s.d.Graph()
	v.gen, v.nodes, v.edges = g.Generation(), g.NumNodes(), g.NumEdges()
	for i, m := range s.d.Engines() {
		c := &v.classes[i]
		c.size = m.Size()
		if !applied {
			continue
		}
		if d := m.LastDelta(); d.Len() > 0 {
			c.chain = append(c.chain, d)
			c.chainRows += d.Len()
		}
	}
	if edit != nil {
		edit(v)
	}
	s.view.Store(v)
	for i := range v.classes {
		c := &v.classes[i]
		if c.chainRows > foldMin+c.base.Len()/foldFrac && s.folding[i].CompareAndSwap(false, true) {
			go s.fold(i, *c)
		}
	}
}

// nextView returns a copy of the current view for a publisher to change
// and store.
func (s *server) nextView() *view {
	v := new(view)
	*v = *s.view.Load()
	v.classes = slices.Clone(v.classes)
	return v
}

// fold replaces the base and chain of class i, as the publisher found them
// in c, by their merge: computed here, on a goroutine of its own and under
// no lock — a commit pays nothing for it, and readers go on merging the
// chain themselves meanwhile — and then swapped in between two commits,
// together with the ΔO that arrived since. folding[i] keeps it to one fold
// per class at a time, so the chain found at the swap still starts with c's.
// The goroutine ends with this one bounded computation and holds nothing
// anyone waits for.
func (s *server) fold(i int, c classView) {
	base := incgraph.FoldRows(s.d.Engines()[i], c.base, c.chain, c.size)
	s.commitMu.Lock()
	v := s.nextView()
	nc := &v.classes[i]
	// The later ΔO move to an array of their own, so that the folded ones
	// go with the old array.
	nc.base, nc.chain = base, append([]incgraph.RowDelta(nil), nc.chain[len(c.chain):]...)
	nc.chainRows -= c.chainRows
	s.view.Store(v)
	s.commitMu.Unlock()
	s.viewFolds.Add(1)
	s.folding[i].Store(false)
}
