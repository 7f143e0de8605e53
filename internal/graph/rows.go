package graph

import (
	"bufio"
	"cmp"
	"io"
	"slices"
	"strconv"
)

// Answers as rows. Every query class's engine hands out its answer Q(G) and
// each ΔO as rows of NodeIDs in a layout of its own (kws [root d1 … dm],
// rpq [src dst], scc the member list, iso the embedding), orders rows by
// its own key (CompareRows) and renders each as one "<word> <v1> <v2> …"
// line (AppendRow). What is common to all four lives here: the row
// containers, the ⊕ that folds a chain of ΔO onto an answer, and the one
// writer every engine's WriteAnswer is.
//
// Every row handed out is immutable: it may be kept and read from any
// goroutine, for as long as the holder likes, and must not be modified.

// Rows is an immutable sequence of rows in canonical order. Rows of a
// fixed width lie in one array; ragged rows (scc) are one shared slice
// each.
type Rows struct {
	width  int
	flat   []NodeID
	ragged [][]NodeID
}

// FlatRows returns the rows of width NodeIDs each that flat holds back to
// back.
func FlatRows(width int, flat []NodeID) Rows { return Rows{width: width, flat: flat} }

// RaggedRows returns rows, each one its own slice.
func RaggedRows(rows [][]NodeID) Rows { return Rows{ragged: rows} }

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

// RowDelta is one ΔO. Every engine's Delta is one: rows are made of it only
// when Each is called.
type RowDelta interface {
	// Len returns |ΔO| in rows.
	Len() int
	// Each calls yield for every row that left Q(G) (gone; only the key of
	// such a row means anything) and then for every row that entered it or
	// replaced the row of its key.
	Each(yield func(row []NodeID, gone bool))
}

// RowOrder is a class's canonical row order: by key, where rows of one key
// compare equal whatever else they hold.
type RowOrder interface {
	CompareRows(a, b []NodeID) int
}

// MergeRows calls emit for every row of base ⊕ chain[0] ⊕ chain[1] ⊕ …, in
// canonical order. base must be in ord's order and chain the deltas of
// consecutive repairs since base was cut. It costs the rows of the chain,
// sorted, and one pass over base; nothing is copied.
func MergeRows(ord RowOrder, base Rows, chain []RowDelta, emit func(row []NodeID)) {
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
		if c := ord.CompareRows(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	i := 0
	for lo := 0; lo < len(events); {
		hi := lo + 1
		for hi < len(events) && ord.CompareRows(events[lo].row, events[hi].row) == 0 {
			hi++
		}
		last := events[hi-1]
		for ; i < base.Len(); i++ {
			c := ord.CompareRows(base.At(i), last.row)
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
func FoldRows(ord RowOrder, base Rows, chain []RowDelta, size int) Rows {
	out := Rows{width: base.width}
	if out.width > 0 {
		out.flat = make([]NodeID, 0, size*out.width)
		MergeRows(ord, base, chain, func(row []NodeID) { out.flat = append(out.flat, row...) })
	} else {
		out.ragged = make([][]NodeID, 0, size)
		MergeRows(ord, base, chain, func(row []NodeID) { out.ragged = append(out.ragged, row) })
	}
	return out
}

// AppendRow renders "<word> <v1> <v2> …\n", the line format of every
// class's answer.
func AppendRow(dst []byte, word string, row []NodeID) []byte {
	dst = append(dst, word...)
	for _, v := range row {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, '\n')
}

// WriteRows writes every row of rows to w as appendRow renders it: the
// WriteAnswer of every class.
func WriteRows(w io.Writer, rows Rows, appendRow func(dst []byte, row []NodeID) []byte) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < rows.Len(); i++ {
		bw.Write(appendRow(bw.AvailableBuffer(), rows.At(i)))
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}
