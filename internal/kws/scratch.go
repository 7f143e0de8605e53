package kws

import "incgraph/internal/cost"

// scratch is one keyword's reusable state: allocated with the index and
// grown, never reallocated, by the repairs that use it. The affected marks
// and list and the queue are per pass; the touched marks and list span one
// repair (every unit of an IncKWSn loop); the meter is drained into the
// index's when the repair's ΔO is taken.
type scratch struct {
	meter cost.Meter
	// aff marks the affected entries of the pass under way; affList lists
	// them and is identifyAffected's worklist.
	aff     marks
	affList []int32
	// touched marks the rows whose entry for this keyword changed; touchedList
	// lists them.
	touched     marks
	touchedList []int32
	// fifo is the BFS queue of the build and of IncKWS+.
	fifo []int32
	q    bucketQueue
}

// touch records that row x changed.
func (s *scratch) touch(x int32) {
	if s.touched.add(x) {
		s.touchedList = append(s.touchedList, x)
	}
}

// push queues row x at distance d: one priority-queue operation, a first
// push and a push at a smaller distance alike.
func (s *scratch) push(x int32, d int) {
	s.meter.AddHeapOps(1)
	s.q.push(x, d)
}

// marks is a set of dense indices cleared in O(1): a member carries the
// current epoch. Call clear before the first use.
type marks struct {
	stamp []uint32
	epoch uint32
}

func (k *marks) clear() {
	if k.epoch++; k.epoch == 0 { // wrapped: old stamps would alias
		clear(k.stamp)
		k.epoch = 1
	}
}

func (k *marks) has(x int32) bool { return int(x) < len(k.stamp) && k.stamp[x] == k.epoch }

// add marks x and reports whether it was unmarked.
func (k *marks) add(x int32) bool {
	if int(x) >= len(k.stamp) {
		k.stamp = append(k.stamp, make([]uint32, int(x)+1-len(k.stamp))...)
	}
	if k.stamp[x] == k.epoch {
		return false
	}
	k.stamp[x] = k.epoch
	return true
}

// bucketQueue is the priority queue of settle: one FIFO bucket per distance
// 0…b, grown to the largest distance pushed. Its use is monotone — once
// popping has begun, every push is at a distance beyond the bucket being
// popped — so pop scans the buckets upwards once. A row pushed again at a
// smaller distance leaves its earlier item behind; settle recognises the
// superseded item by its distance and skips it unmetered, so the counted
// operations are those of a heap with decrease-key: one per push, one per
// row settled.
type bucketQueue struct {
	buckets   [][]int32
	cur, head int
}

func (q *bucketQueue) push(x int32, d int) {
	for len(q.buckets) <= d {
		q.buckets = append(q.buckets, nil)
	}
	q.buckets[d] = append(q.buckets[d], x)
}

// pop returns an item of the smallest distance; ok is false, and the queue
// empty and ready for the next pass, when none is left.
func (q *bucketQueue) pop() (x int32, d int, ok bool) {
	for ; q.cur < len(q.buckets); q.cur, q.head = q.cur+1, 0 {
		if b := q.buckets[q.cur]; q.head < len(b) {
			q.head++
			return b[q.head-1], q.cur, true
		}
		q.buckets[q.cur] = q.buckets[q.cur][:0]
	}
	q.cur, q.head = 0, 0
	return 0, 0, false
}
