package rpq

import (
	"cmp"
	"slices"

	"incgraph/internal/cost"
)

// scratch is one worker's reusable state. The queue, the affected list and
// the gathered relaxations are per source and empty between sources; the
// logs and the meter accumulate over a fan-out (each task remembers its
// range) and are drained by mergeTasks.
type scratch struct {
	meter cost.Meter
	q     queue
	// aff lists the affected entries of the source under repair; identAff
	// uses it as its worklist too.
	aff []key
	// relaxations are the insertion relaxations of the source under repair.
	relaxations []relaxation
	// events logs the entries created and (flagged) removed, for the
	// inverted index.
	events []key
	// trans logs the match transitions.
	trans []transition
}

// removed flags, in the event log, the key of an entry that was removed.
const removed = affBit

func (w *scratch) reset() {
	w.events, w.trans = w.events[:0], w.trans[:0]
}

// transition is one change of a source's answer: node dst (dense index)
// became, or stopped being, a match.
type transition struct {
	dst   int32
	added bool
}

// relaxation is one inserted product edge, gathered before any is applied:
// entry k is offered distance cand.
type relaxation struct {
	k    key
	cand int32
}

type qitem struct {
	k    key
	dist int32
}

// queue is the monotone priority queue of settle for unit weights. Items
// pushed before start are sorted once; an item pushed while settling has
// the distance of the item just popped plus one, so those arrive in order
// and wait in a FIFO; pop takes the smaller head. A key pushed again at a
// lower distance is not moved: the earlier item is left behind and settle
// skips it when it surfaces.
type queue struct {
	init, fifo []qitem
	i, f       int
	started    bool
}

func (q *queue) push(k key, dist int32) {
	if q.started {
		q.fifo = append(q.fifo, qitem{k, dist})
	} else {
		q.init = append(q.init, qitem{k, dist})
	}
}

// start ends the initial pushes.
func (q *queue) start() {
	slices.SortFunc(q.init, func(a, b qitem) int { return cmp.Compare(a.dist, b.dist) })
	q.started = true
}

// pop returns the item with the smallest distance; ok is false, and the
// queue empty and ready for the next source, when none is left.
func (q *queue) pop() (k key, dist int32, ok bool) {
	var it qitem
	switch {
	case q.i < len(q.init) && (q.f == len(q.fifo) || q.init[q.i].dist <= q.fifo[q.f].dist):
		it = q.init[q.i]
		q.i++
	case q.f < len(q.fifo):
		it = q.fifo[q.f]
		q.f++
	default:
		*q = queue{init: q.init[:0], fifo: q.fifo[:0]}
		return 0, 0, false
	}
	return it.k, it.dist, true
}
