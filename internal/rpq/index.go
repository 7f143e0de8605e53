package rpq

import "incgraph/internal/graph"

// nodeIndex maps NodeIDs to the engine's dense node indices. The
// traversals translate every neighbour they visit, so the common case — IDs
// issued from zero upwards, as every generator and loader here does — is an
// array lookup; an ID that is negative, or far beyond the number of nodes,
// goes through the map.
type nodeIndex struct {
	direct []int32 // direct[v] is index+1; 0 where v is not (or not here)
	sparse map[graph.NodeID]int32
}

// add maps v, which must be new, to index i (the number of nodes so far).
func (x *nodeIndex) add(v graph.NodeID, i int32) {
	// Direct slots are worth a bounded multiple of the node count.
	if v < 0 || v >= 4*graph.NodeID(i)+1024 {
		if x.sparse == nil {
			x.sparse = make(map[graph.NodeID]int32)
		}
		x.sparse[v] = i
		return
	}
	if int(v) >= len(x.direct) {
		x.direct = append(x.direct, make([]int32, int(v)+1-len(x.direct))...)
	}
	x.direct[v] = i + 1
}

// get returns the index of v; ok is false when v was never added.
func (x *nodeIndex) get(v graph.NodeID) (i int32, ok bool) {
	if uint64(v) < uint64(len(x.direct)) && x.direct[v] != 0 {
		return x.direct[v] - 1, true
	}
	i, ok = x.sparse[v]
	return i, ok
}

// of is get for a node known to be indexed.
func (x *nodeIndex) of(v graph.NodeID) int32 {
	i, _ := x.get(v)
	return i
}
