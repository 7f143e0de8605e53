package graph

// Traversal scratch space. Every graph owns a lock-free pool of scratch
// buffers, each holding an epoch-stamped visited array (indexed by the dense
// node slot assigned at AddNode) and reusable queue/stack backing arrays, so
// the BFS/DFS kernels in traverse.go allocate nothing on a warm graph.
//
// The pool is worker-keyed and lock-free: concurrent traversals — the
// parallel batch builds and repair fan-outs of kws/rpq/iso, or caller
// goroutines reading between mutations — each check out their own buffer,
// and nested traversals (a kernel invoked from another kernel's callback)
// simply check out a second one instead of corrupting the outer walk. Each
// buffer carries its own epoch counter, so stamps never leak between
// buffers, and release returns the buffer for reuse by any later traversal.
//
// Storage is two-tier: an atomic primary slot holds one buffer with a
// strong reference (so the single-threaded hot path stays allocation-free
// even across GCs), and a sync.Pool absorbs the overflow buffers that only
// exist while traversals actually overlap (GC reclaims those when the
// fan-out ends).

// qitem is one BFS frontier entry: a node and its hop distance.
type qitem struct {
	v NodeID
	d int32
}

type scratch struct {
	epoch   uint32
	visited []uint32 // slot -> epoch at which the slot was last seen
	queue   []qitem
	stack   []NodeID
}

// acquire checks a scratch buffer out of the graph's pool, ready for one
// traversal over g (visited sized to the node table, fresh epoch, empty queue and
// stack). Call g.release on the result when done. Safe for concurrent use
// as long as the graph is not mutated underneath (see the concurrency
// contract in the package comment).
func (g *Graph) acquire() *scratch {
	s := g.primaryScratch.Swap(nil)
	if s == nil {
		s, _ = g.scratchPool.Get().(*scratch)
	}
	if s == nil {
		s = &scratch{}
	}
	if n := len(g.nodes); len(s.visited) < n {
		grown := make([]uint32, n+n/2+8)
		copy(grown, s.visited)
		s.visited = grown
	}
	s.epoch++
	if s.epoch == 0 { // uint32 wrap: stale stamps could collide, reset all
		clear(s.visited)
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	s.stack = s.stack[:0]
	return s
}

// release returns a scratch buffer to the pool: back into the primary
// slot when it is free, else into the overflow pool.
func (g *Graph) release(s *scratch) {
	if !g.primaryScratch.CompareAndSwap(nil, s) {
		g.scratchPool.Put(s)
	}
}

// seen stamps slot and reports whether it was already stamped this epoch.
func (s *scratch) seen(slot int32) bool {
	if s.visited[slot] == s.epoch {
		return true
	}
	s.visited[slot] = s.epoch
	return false
}
