package cluster

import (
	"net"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// Log shipping. After every committed batch the coordinator ships the
// WAL record — the same (seq, gen, batch) payload its own log framed — to
// each worker owning a shard the batch touched, with the per-shard chain
// links that let the worker's replica log detect missed records (see
// store.ReplicaLog). Shipping runs on one ordered queue per worker: jobs
// are enqueued while the batch still holds its shards busy, so records
// touching the same shard always reach the worker in commit order, and
// the strict request/response link is never interleaved mid-batch.
//
// Failure never propagates to the committed batch: the commit was already
// durable on the coordinator when shipping starts. A transport failure
// leaves the worker's chain behind, which the next replicate for the
// shard detects as a gap and heals by parcel resync; a quorum shortfall
// only increments the degraded counter.

// ReplPolicy selects how Apply waits on replica acknowledgements.
type ReplPolicy int

const (
	// ReplOff disables log shipping (the pre-HA behavior).
	ReplOff ReplPolicy = iota
	// ReplAsync ships in the background: Apply returns as soon as the
	// record is queued. Lowest latency; a coordinator crash can lose the
	// records still in flight (they were durable locally, not remotely).
	ReplAsync
	// ReplQuorum ships like ReplAsync but Apply waits until a majority of
	// the involved workers acknowledged a clean append. A shortfall does
	// not fail Apply — the commit is already locally durable — it marks
	// the batch degraded.
	ReplQuorum
)

func (p ReplPolicy) String() string {
	switch p {
	case ReplOff:
		return "off"
	case ReplAsync:
		return "async"
	case ReplQuorum:
		return "quorum"
	default:
		return "unknown"
	}
}

// CoordinatorOptions tunes NewCoordinator.
type CoordinatorOptions struct {
	// Term is the coordinator's fencing term. Workers remember the
	// highest term they have seen; a promoted standby attaches at a
	// higher term, which fences every session of the coordinator it
	// replaced (their mutating requests are rejected).
	Term uint64
	// Repl is the log-shipping policy (default ReplOff).
	Repl ReplPolicy
	// CallTimeout overrides the per-RPC base deadline (default 60s); it
	// still scales with request size. Fault drills shorten it so dropped
	// frames fail in milliseconds instead of a minute.
	CallTimeout time.Duration
	// OnCommit, when set, observes every committed batch in sequence
	// order — the hook the standby feed (Hub) rides. It is called after
	// the commit, while the batch's shards are still held.
	OnCommit func(seq, preGen, postGen uint64, b graph.Batch)
}

// replRecord carries one committed batch's replication identity: its
// sequence, the generations around the commit, and each touched shard's
// previous chain link.
type replRecord struct {
	seq     uint64
	preGen  uint64
	postGen uint64
	prev    map[int]uint64
}

// replJob is one worker's share of a record on its shipping queue.
type replJob struct {
	entries []replEntry
	postGen uint64
	payload []byte
	// done, when non-nil, receives true for a fully clean ack (every
	// shard appended) — the quorum vote.
	done chan bool
}

// startShippers launches one ordered shipping goroutine per worker.
func (c *Coordinator) startShippers() {
	for _, l := range c.workers {
		l.replQ = make(chan replJob, 256)
		go c.shipLoop(l)
	}
}

// shipLoop drains one worker's queue in order. Gapped shards are marked
// dirty (the next batch touching them re-places by parcel); transport
// failures leave the worker's chains behind, which later replicates
// surface as gaps — same healing path.
func (c *Coordinator) shipLoop(l *workerLink) {
	for {
		var job replJob
		select {
		case job = <-l.replQ:
		case <-c.quit:
			return
		}
		clean := c.ship(l, job)
		if job.done != nil {
			job.done <- clean
		}
	}
}

// ship delivers one job and reports whether every shard acked clean.
func (c *Coordinator) ship(l *workerLink, job replJob) bool {
	r, err := l.request(encodeReplicate(job.entries, job.postGen, job.payload))
	if err != nil {
		c.remoteErrs.Add(1)
		return false
	}
	acks, err := decodeReplAck(r)
	if err != nil {
		c.remoteErrs.Add(1)
		return false
	}
	var gaps []int
	for _, e := range job.entries {
		if acks[e.shard] != replOK {
			gaps = append(gaps, e.shard)
		}
	}
	if len(gaps) > 0 {
		c.markDirty(gaps)
		return false
	}
	c.replShipped.Add(1)
	return true
}

// replicate queues one committed record for every involved worker and,
// under ReplQuorum, waits for a majority of clean acks. Called while the
// batch's shards are still busy, so same-shard records enqueue in commit
// order.
func (c *Coordinator) replicate(b graph.Batch, workerIDs []int, shardsByWorker [][]int, rep *replRecord) {
	payload, err := store.EncodeRecord(rep.seq, rep.preGen, b)
	if err != nil {
		c.replDegraded.Add(1)
		return
	}
	quorum := c.opts.Repl == ReplQuorum
	var dones []chan bool
	for wi, w := range workerIDs {
		entries := make([]replEntry, len(shardsByWorker[wi]))
		for i, s := range shardsByWorker[wi] {
			entries[i] = replEntry{shard: s, prevSeq: rep.prev[s]}
		}
		job := replJob{entries: entries, postGen: rep.postGen, payload: payload}
		if quorum {
			job.done = make(chan bool, 1)
			dones = append(dones, job.done)
		}
		select {
		case c.workers[w].replQ <- job:
		case <-c.quit:
			return
		}
	}
	if !quorum {
		return
	}
	need := len(workerIDs)/2 + 1
	clean := 0
	for _, done := range dones {
		select {
		case ok := <-done:
			if ok {
				clean++
			}
		case <-c.quit:
			return
		}
		if clean >= need {
			return
		}
	}
	c.replDegraded.Add(1)
}

// FetchReplStates asks the worker on conn for its per-shard replication
// state (last replicated sequence and proven generation). It needs no
// hello, so a standby can poll workers it has no coordinator session
// with — the currency proof behind replica reads.
func FetchReplStates(conn net.Conn, timeout time.Duration) (map[int]ReplState, error) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	r, err := roundTrip(conn, []byte{byte(msgReplState)})
	if err != nil {
		return nil, err
	}
	return decodeReplStates(r)
}
