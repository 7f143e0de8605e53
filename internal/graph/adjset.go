package graph

import "slices"

// adjSet is one adjacency list (or one label class of the inverted label
// index): its members in ascending order. Membership is a binary search,
// an update is one insertion or deletion in the slice, and iteration and
// sorted access are the slice itself — allocation-free, in ascending
// NodeID order. An update shifts the members after it: a short memmove
// for adjacency (mean degree 2–5, hubs of a few dozen), a few kilobytes
// for a label class of thousands. Bulk builders add members in ascending
// order, where every add is an append.
//
// The zero value is an empty set. A graph hands out its sets' slices
// (SuccessorsSorted, ExportShard) as borrowed views: valid until the next
// mutation of that set, never to be mutated by the reader.
type adjSet []NodeID

func (a adjSet) has(v NodeID) bool {
	_, ok := slices.BinarySearch(a, v)
	return ok
}

// add inserts v and reports whether it was absent.
func (a *adjSet) add(v NodeID) bool {
	i, ok := slices.BinarySearch(*a, v)
	if ok {
		return false
	}
	*a = slices.Insert(*a, i, v)
	return true
}

// remove deletes v and reports whether it was present.
func (a *adjSet) remove(v NodeID) bool {
	i, ok := slices.BinarySearch(*a, v)
	if !ok {
		return false
	}
	*a = slices.Delete(*a, i, i+1)
	return true
}
