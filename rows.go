package incgraph

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"
)

// RowAnswer is the row-level surface of an answer, implemented by the four
// Maintain* adapters beside Maintained: Q(G) as rows of NodeIDs in the
// class's own layout, and ΔO of every Apply in the same rows, so that a
// holder of Q(G) can keep it current as Q(G) ⊕ ΔO without asking the engine
// again (MergeRows). The layouts:
//
//	kws  [root d1 … dm], keyed by root
//	rpq  [src dst]
//	scc  the member list, ascending, keyed by its smallest member; the
//	     slice is the engine's own, shared, never copied
//	iso  the embedding, aligned with Pattern.Nodes(), in Match.Key() order
//
// Every row handed out is immutable: it may be kept and read from any
// goroutine, for as long as the holder likes, and must not be modified.
// The methods themselves follow the engine's contract: Rows and LastDelta
// need the access Apply needs; CompareRows and AppendRow touch no state.
type RowAnswer interface {
	// Rows returns Q(G) as it is now, in canonical order: the order, and
	// through AppendRow the bytes, of WriteAnswer.
	Rows() Rows
	// LastDelta returns ΔO of the last successful Apply — an empty delta
	// before the first. It reports that Apply until the next one; the value
	// returned stays valid after it.
	LastDelta() RowDelta
	// CompareRows orders two rows canonically by their keys (kws rows of
	// one root compare equal whatever their distances).
	CompareRows(a, b []NodeID) int
	// AppendRow appends the line WriteAnswer prints for row, newline
	// included.
	AppendRow(dst []byte, row []NodeID) []byte
}

// RowDelta is one ΔO, held as the engine's own Delta value: taking it from
// LastDelta costs one allocation whatever its size, and rows are made of it
// only when Each is called.
type RowDelta interface {
	// Len returns |ΔO| in rows.
	Len() int
	// Each calls yield for every row that left Q(G) (gone; only the key of
	// such a row means anything) and then for every row that entered it or
	// replaced the row of its key.
	Each(yield func(row []NodeID, gone bool))
}

// Rows is an immutable sequence of rows in canonical order. Rows of a
// fixed width lie in one array; ragged rows (scc) are one shared slice
// each.
type Rows struct {
	width  int
	flat   []NodeID
	ragged [][]NodeID
}

// Len returns the number of rows.
func (r Rows) Len() int {
	if r.width > 0 {
		return len(r.flat) / r.width
	}
	return len(r.ragged)
}

// At returns row i.
func (r Rows) At(i int) []NodeID {
	if r.width > 0 {
		return r.flat[i*r.width : (i+1)*r.width : (i+1)*r.width]
	}
	return r.ragged[i]
}

// MergeRows calls emit for every row of base ⊕ chain[0] ⊕ chain[1] ⊕ …, in
// canonical order. base must be in ra's order and chain the deltas of
// consecutive Applys since base was cut. It costs the rows of the chain,
// sorted, and one pass over base; nothing is copied.
func MergeRows(ra RowAnswer, base Rows, chain []RowDelta, emit func(row []NodeID)) {
	type event struct {
		row  []NodeID
		gone bool
		seq  int32 // position in the chain's row sequence
	}
	n := 0
	for _, d := range chain {
		n += d.Len()
	}
	events := make([]event, 0, n)
	for _, d := range chain {
		d.Each(func(row []NodeID, gone bool) { events = append(events, event{row, gone, int32(len(events))}) })
	}
	// By key, the events of one key in chain order: the last one says what
	// became of the key.
	slices.SortFunc(events, func(a, b event) int {
		if c := ra.CompareRows(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	i := 0
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && ra.CompareRows(events[lo].row, events[hi].row) == 0 {
			hi++
		}
		last := events[hi-1]
		for ; i < base.Len(); i++ {
			c := ra.CompareRows(base.At(i), last.row)
			if c > 0 {
				break
			}
			if c == 0 {
				i++ // superseded
				break
			}
			emit(base.At(i))
		}
		if !last.gone {
			emit(last.row)
		}
		lo = hi
	}
	for ; i < base.Len(); i++ {
		emit(base.At(i))
	}
}

// FoldRows returns base ⊕ chain as Rows of their own: fixed-width rows are
// copied into one new array, shared rows stay shared. size is the number of
// rows the result has (the engine's Size at the end of the chain).
func FoldRows(ra RowAnswer, base Rows, chain []RowDelta, size int) Rows {
	out := Rows{width: base.width}
	if out.width > 0 {
		out.flat = make([]NodeID, 0, size*out.width)
		MergeRows(ra, base, chain, func(row []NodeID) { out.flat = append(out.flat, row...) })
	} else {
		out.ragged = make([][]NodeID, 0, size)
		MergeRows(ra, base, chain, func(row []NodeID) { out.ragged = append(out.ragged, row) })
	}
	return out
}

// appendRow renders "<word> <v1> <v2> …\n", the line format of every
// class's WriteAnswer.
func appendRow(dst []byte, word string, row []NodeID) []byte {
	dst = append(dst, word...)
	for _, v := range row {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, '\n')
}

func (a *kwsAdapter) Rows() Rows {
	roots := a.ix.MatchRoots()
	out := Rows{width: 1 + len(a.ix.Query().Keywords)}
	out.flat = make([]NodeID, 0, len(roots)*out.width)
	for _, r := range roots {
		m, _ := a.ix.MatchAt(r)
		out.flat = appendKWSRow(out.flat, m)
	}
	return out
}

func appendKWSRow(dst []NodeID, m KWSMatch) []NodeID {
	dst = append(dst, m.Root)
	for _, d := range m.Dists {
		dst = append(dst, NodeID(d))
	}
	return dst
}

func (a *kwsAdapter) LastDelta() RowDelta { return kwsRowDelta(a.last) }

func (a *kwsAdapter) CompareRows(x, y []NodeID) int { return cmp.Compare(x[0], y[0]) }

func (a *kwsAdapter) AppendRow(dst []byte, row []NodeID) []byte { return appendRow(dst, "root", row) }

type kwsRowDelta KWSDelta

func (d kwsRowDelta) Len() int { return len(d.Removed) + len(d.Added) + len(d.Updated) }

func (d kwsRowDelta) Each(yield func(row []NodeID, gone bool)) {
	n := len(d.Removed)
	for _, ms := range [][]KWSMatch{d.Added, d.Updated} {
		for _, m := range ms {
			n += 1 + len(m.Dists)
		}
	}
	arena := make([]NodeID, 0, n)
	for _, r := range d.Removed {
		arena = append(arena, r)
		yield(arena[len(arena)-1:len(arena):len(arena)], true)
	}
	for _, ms := range [][]KWSMatch{d.Added, d.Updated} {
		for _, m := range ms {
			lo := len(arena)
			arena = appendKWSRow(arena, m)
			yield(arena[lo:len(arena):len(arena)], false)
		}
	}
}

func (a *rpqAdapter) Rows() Rows {
	ps := a.e.Matches()
	out := Rows{width: 2, flat: make([]NodeID, 0, 2*len(ps))}
	for _, p := range ps {
		out.flat = append(out.flat, p.Src, p.Dst)
	}
	return out
}

func (a *rpqAdapter) LastDelta() RowDelta { return rpqRowDelta(a.last) }

func (a *rpqAdapter) CompareRows(x, y []NodeID) int {
	if c := cmp.Compare(x[0], y[0]); c != 0 {
		return c
	}
	return cmp.Compare(x[1], y[1])
}

func (a *rpqAdapter) AppendRow(dst []byte, row []NodeID) []byte { return appendRow(dst, "pair", row) }

type rpqRowDelta RPQDelta

func (d rpqRowDelta) Len() int { return len(d.Removed) + len(d.Added) }

func (d rpqRowDelta) Each(yield func(row []NodeID, gone bool)) {
	arena := make([]NodeID, 0, 2*d.Len())
	for i, ps := range [][]RPQPair{d.Removed, d.Added} {
		for _, p := range ps {
			arena = append(arena, p.Src, p.Dst)
			yield(arena[len(arena)-2:len(arena):len(arena)], i == 0)
		}
	}
}

func (a *sccAdapter) Rows() Rows { return Rows{ragged: a.s.ComponentsSorted()} }

func (a *sccAdapter) LastDelta() RowDelta { return sccRowDelta(a.last) }

func (a *sccAdapter) CompareRows(x, y []NodeID) int { return cmp.Compare(x[0], y[0]) }

func (a *sccAdapter) AppendRow(dst []byte, row []NodeID) []byte { return appendRow(dst, "comp", row) }

type sccRowDelta SCCDelta

func (d sccRowDelta) Len() int { return len(d.Removed) + len(d.Added) }

func (d sccRowDelta) Each(yield func(row []NodeID, gone bool)) {
	for _, c := range d.Removed {
		yield(c, true)
	}
	for _, c := range d.Added {
		yield(c, false)
	}
}

func (a *isoAdapter) Rows() Rows {
	ms := a.ix.Matches()
	out := Rows{width: len(a.ix.Pattern().Nodes())}
	out.flat = make([]NodeID, 0, len(ms)*out.width)
	for _, m := range ms {
		out.flat = append(out.flat, m...)
	}
	return out
}

func (a *isoAdapter) LastDelta() RowDelta { return isoRowDelta(a.last) }

// CompareRows orders embeddings as their Match.Key() strings order — node
// by node, each as its decimal text: a separator sorts below every digit
// and sign, so the joined keys and the texts in turn compare alike.
func (a *isoAdapter) CompareRows(x, y []NodeID) int {
	var bx, by [20]byte
	for i := range x {
		if x[i] == y[i] {
			continue
		}
		return bytes.Compare(strconv.AppendInt(bx[:0], int64(x[i]), 10), strconv.AppendInt(by[:0], int64(y[i]), 10))
	}
	return 0
}

func (a *isoAdapter) AppendRow(dst []byte, row []NodeID) []byte { return appendRow(dst, "match", row) }

type isoRowDelta ISODelta

func (d isoRowDelta) Len() int { return len(d.Removed) + len(d.Added) }

func (d isoRowDelta) Each(yield func(row []NodeID, gone bool)) {
	for _, m := range d.Removed {
		yield(m, true)
	}
	for _, m := range d.Added {
		yield(m, false)
	}
}
