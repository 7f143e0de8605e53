package graph

import "slices"

// NodeIndex maps NodeIDs to dense indices: the graph's NodeID → slot
// (shard.go), and NodeID → index for the engines that keep their state in
// slices (rpq, scc; their indices are their own, not the slots a reshard
// renumbers). Every node lookup and every neighbour visited goes through
// one, so the common case — IDs issued from zero upwards, as every
// generator and loader here does — is an array read; an ID that is
// negative, or far beyond its index, goes through the map.
//
// The zero value is an empty index.
type NodeIndex struct {
	direct []int32 // direct[v] is index+1; 0 where v is not (or not here)
	sparse map[NodeID]int32
}

// IndexNodes returns the index that numbers ids in slice order.
func IndexNodes(ids []NodeID) NodeIndex {
	var x NodeIndex
	for i, v := range ids {
		x.Add(v, int32(i))
	}
	return x
}

// Add maps v, which must not be indexed, to index i.
func (x *NodeIndex) Add(v NodeID, i int32) {
	// Direct slots are worth a bounded multiple of the index: dense IDs
	// map to indices of about their own size.
	if v < 0 || v >= 4*NodeID(i)+1024 {
		if x.sparse == nil {
			x.sparse = make(map[NodeID]int32)
		}
		x.sparse[v] = i
		return
	}
	x.direct = lengthen(x.direct, int(v)+1)
	x.direct[v] = i + 1
}

// Remove unmaps v; removing an ID that is not indexed does nothing.
func (x *NodeIndex) Remove(v NodeID) {
	if uint64(v) < uint64(len(x.direct)) && x.direct[v] != 0 {
		x.direct[v] = 0
		return
	}
	delete(x.sparse, v)
}

// Get returns the index of v; ok is false when v is not indexed.
func (x *NodeIndex) Get(v NodeID) (i int32, ok bool) {
	if uint64(v) < uint64(len(x.direct)) && x.direct[v] != 0 {
		return x.direct[v] - 1, true
	}
	i, ok = x.sparse[v]
	return i, ok
}

// Of is Get for a node known to be indexed.
func (x *NodeIndex) Of(v NodeID) int32 {
	i, _ := x.Get(v)
	return i
}

// Len returns the number of nodes indexed. It scans the direct window: it
// is for audits, not for hot paths.
func (x *NodeIndex) Len() int {
	n := len(x.sparse)
	for _, e := range x.direct {
		if e != 0 {
			n++
		}
	}
	return n
}

// lengthen returns s with length at least n, the new elements zero; the
// backing array grows geometrically.
func lengthen[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	old := len(s)
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}
