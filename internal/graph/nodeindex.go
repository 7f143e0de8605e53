package graph

// NodeIndex maps NodeIDs to an engine's dense node indices 0..n-1: the one
// NodeID→index translation of the engines that keep their state in slices
// (rpq, scc). Their traversals translate every neighbour they visit, so the
// common case — IDs issued from zero upwards, as every generator and loader
// here does — is an array lookup; an ID that is negative, or far beyond the
// number of nodes, goes through the map. The index is the engine's own and
// not the graph's slot, which a reshard or a reload renumbers.
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

// Add maps v, which must be new, to index i (the number of nodes so far).
func (x *NodeIndex) Add(v NodeID, i int32) {
	// Direct slots are worth a bounded multiple of the node count.
	if v < 0 || v >= 4*NodeID(i)+1024 {
		if x.sparse == nil {
			x.sparse = make(map[NodeID]int32)
		}
		x.sparse[v] = i
		return
	}
	if int(v) >= len(x.direct) {
		x.direct = append(x.direct, make([]int32, int(v)+1-len(x.direct))...)
	}
	x.direct[v] = i + 1
}

// Get returns the index of v; ok is false when v was never added.
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
