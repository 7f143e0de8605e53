package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// Link is one worker connection handed to NewCoordinator. Redial, when
// non-nil, lets the coordinator re-establish a lost session (a restarted
// worker comes back empty and is re-placed from authoritative segments);
// without it any session loss — a crash, a timed-out RPC or health poll —
// is permanent for the coordinator's lifetime, so set it outside tests
// (Dial and InProcess always do).
type Link struct {
	Conn   net.Conn
	Redial func() (net.Conn, error)
	// Name labels the worker in errors and stats (an address, usually).
	Name string
	// Retries, when non-nil, exposes the transport's cumulative dial
	// attempt counter (see Dialer) so Stats can report it.
	Retries *atomic.Uint64
}

// workerLink is the coordinator's per-worker session state. Its mutex
// serializes requests on the connection (the protocol is one request in
// flight per session); coordinator scheduling state lives under
// Coordinator.mu, and no code path holds Coordinator.mu while taking a
// link mutex.
type workerLink struct {
	name    string
	redial  func() (net.Conn, error)
	retries *atomic.Uint64
	// timeout is the base per-call deadline (rpcTimeout unless the
	// coordinator was built with CallTimeout).
	timeout time.Duration
	// redialMu serializes reattachment so concurrent batches discovering
	// the same downed worker produce one session, fully handshaken and
	// reconciled before it is published.
	redialMu sync.Mutex
	// mu serializes requests: one in flight per session.
	mu sync.Mutex
	// connMu guards the session fields below. It is held only for field
	// access, never across I/O — so Close (and failure marking) can always
	// interrupt an in-flight RPC by closing the conn under connMu while
	// the request goroutine is blocked inside roundTrip holding mu.
	connMu sync.Mutex
	conn   net.Conn
	down   bool
	// respBuf is the apply fast path's response scratch, guarded by mu
	// (held for the whole round trip).
	respBuf []byte
	// applyQ coalesces concurrently admitted batches' phase-1 shares into
	// group frames on this link.
	applyQ applyQueue
	// replQ is the ordered log-shipping queue (nil when replication is
	// off); see replication.go.
	replQ chan replJob
}

// applyCall is one batch's phase-1 share on one worker, queued on the
// link's applyQueue for (possibly grouped) delivery.
type applyCall struct {
	body   []byte // encoded batch section (appendApplyBatch)
	capAt  time.Time
	deltas []shardDelta // response: per-shard deltas in request order
	err    error
	done   bool
}

var applyCallPool = sync.Pool{New: func() any { return new(applyCall) }}

func getApplyCall() *applyCall {
	call := applyCallPool.Get().(*applyCall)
	call.body = call.body[:0]
	call.deltas = call.deltas[:0]
	call.capAt = time.Time{}
	call.err = nil
	call.done = false
	return call
}

// applyQueue implements per-link group commit for phase 1. The protocol
// allows one request in flight per session, so concurrently admitted
// disjoint batches sharing a worker would serialize round trip by round
// trip; instead, whichever caller finds the line idle becomes leader,
// ships every pending batch section in one group frame, and distributes
// the per-batch verdicts. Small consecutive commits thus cost one
// rendezvous per group, not per batch.
type applyQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*applyCall
	sending bool
	// labelsSent counts the intern-table prefix already shipped on this
	// session; the next group's label delta starts there. Only the active
	// leader (sending == true) advances it; ensureUp resets it with the
	// session.
	labelsSent int
	// frame is the leader's group-frame scratch (header-prefixed).
	frame []byte
}

// sendApply queues call on l and blocks until its verdict is in,
// leading a group send whenever the line is idle.
func (c *Coordinator) sendApply(l *workerLink, call *applyCall) error {
	q := &l.applyQ
	q.mu.Lock()
	q.pending = append(q.pending, call)
	for {
		if call.done {
			q.mu.Unlock()
			return call.err
		}
		if !q.sending {
			q.sending = true
			group := q.pending
			q.pending = nil
			q.mu.Unlock()
			c.sendGroup(l, group)
			q.mu.Lock()
			q.sending = false
			q.cond.Broadcast()
			continue
		}
		q.cond.Wait()
	}
}

// sendGroup ships one group frame — label delta plus every call's batch
// section — and distributes the per-batch results. Caller owns the
// sending flag; results are published (done = true) under the queue
// mutex, which is the happens-before edge the waiters in sendApply read
// their call's fields through.
func (c *Coordinator) sendGroup(l *workerLink, group []*applyCall) {
	q := &l.applyQ
	cur := graph.InternedLabels()
	q.mu.Lock()
	base := q.labelsSent
	// Advanced optimistically: a failed send poisons the session, and the
	// reattach handshake resets the counter with it.
	q.labelsSent = cur
	q.mu.Unlock()
	frame := append(q.frame[:0], zeroFrameHeader[:]...)
	frame = appendApplyHeader(frame, base, cur)
	frame = binary.AppendUvarint(frame, uint64(len(group)))
	// The group's deadline cap is the loosest member's: any one uncapped
	// call uncaps the round trip (per-batch budgets were already enforced
	// at admission).
	var capAt time.Time
	uncapped := false
	for _, call := range group {
		frame = append(frame, call.body...)
		if call.capAt.IsZero() {
			uncapped = true
		} else if call.capAt.After(capAt) {
			capAt = call.capAt
		}
	}
	if uncapped {
		capAt = time.Time{}
	}
	q.frame = frame[:0]
	// groupErr, when set, overrides every member's verdict: the response
	// (or the session) was untrustworthy as a whole.
	var groupErr error
	r, err := l.requestPrefixedCapped(frame, capAt)
	switch {
	case err != nil:
		if IsRemote(err) {
			// An envelope-level rejection (fencing, label-chain mismatch)
			// leaves the session's label state untrustworthy: drop the
			// connection so the next batch re-handshakes from scratch.
			l.poison()
		}
		groupErr = err
	default:
		var n uint64
		if n, groupErr = r.uvarint(); groupErr == nil && n != uint64(len(group)) {
			l.poison()
			groupErr = fmt.Errorf("%w: group response carries %d batches, sent %d", ErrProtocol, n, len(group))
		}
		if groupErr == nil {
			for _, call := range group {
				call.deltas, call.err = decodeBatchResult(r, call.deltas[:0])
			}
			if derr := r.done(); derr != nil {
				l.poison()
				groupErr = derr
			}
		}
	}
	q.mu.Lock()
	for _, call := range group {
		if groupErr != nil {
			call.err = groupErr
		}
		call.done = true
	}
	q.mu.Unlock()
}

// requestPrefixedCapped is requestCapped for header-prefixed frames: one
// write out, response decoded into the link's reusable scratch.
func (l *workerLink) requestPrefixedCapped(frame []byte, capAt time.Time) (*reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	conn, err := l.session()
	if err != nil {
		return nil, err
	}
	dl := l.deadline(len(frame))
	if !capAt.IsZero() && capAt.Before(dl) {
		dl = capAt
	}
	conn.SetDeadline(dl)
	err = writeFramePrefixed(conn, frame)
	var payload []byte
	if err == nil {
		payload, err = readFrameInto(conn, l.respBuf, maxFrame)
	}
	conn.SetDeadline(time.Time{})
	if err != nil {
		l.fail(conn)
		return nil, err
	}
	if cap(payload) > cap(l.respBuf) {
		l.respBuf = payload
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty response", ErrProtocol)
	}
	switch msgType(payload[0]) {
	case msgOK:
		return &reader{buf: payload, off: 1}, nil
	case msgErr:
		return nil, remoteError(payload[1:])
	default:
		return nil, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, payload[0])
	}
}

// poison drops the link's current session so the next batch re-dials and
// re-handshakes it.
func (l *workerLink) poison() {
	l.connMu.Lock()
	conn := l.conn
	l.connMu.Unlock()
	if conn != nil {
		l.fail(conn)
	}
}

// session returns the live connection, or an error when the link is down.
func (l *workerLink) session() (net.Conn, error) {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	if l.down || l.conn == nil {
		return nil, fmt.Errorf("cluster: worker %s is down", l.name)
	}
	return l.conn, nil
}

// fail marks the session down (if conn is still current) and closes it.
func (l *workerLink) fail(conn net.Conn) {
	l.connMu.Lock()
	if l.conn == conn {
		l.down = true
	}
	l.connMu.Unlock()
	conn.Close()
}

// rpcTimeout bounds one request round trip. A worker that is stalled
// rather than dead (SIGSTOP, network black hole) must not wedge the
// coordinator: past the deadline the request errors, the link is marked
// down, and the batch aborts through the usual resync path.
const rpcTimeout = 60 * time.Second

// rpcDeadline scales the round-trip deadline with the request size, so a
// multi-hundred-MB shard parcel on a slow link gets proportionally longer
// than a 20-byte stat poll instead of timing out forever on retry: the
// base covers latency and the response, plus one second per MiB shipped
// (a ≥1 MiB/s floor on usable links).
func rpcDeadline(reqBytes int) time.Time {
	return deadlineFrom(rpcTimeout, reqBytes)
}

func deadlineFrom(base time.Duration, reqBytes int) time.Time {
	return time.Now().Add(base + time.Duration(reqBytes>>20)*time.Second)
}

// deadline is the link's per-call deadline: the coordinator's configured
// base (CallTimeout) scaled by request size.
func (l *workerLink) deadline(reqBytes int) time.Time {
	base := l.timeout
	if base <= 0 {
		base = rpcTimeout
	}
	return deadlineFrom(base, reqBytes)
}

// request performs one round trip, marking the link down on transport
// failure (remote errors leave the session usable).
func (l *workerLink) request(req []byte) (*reader, error) {
	return l.requestCapped(req, 0, time.Time{})
}

// requestHint is request with a response-size hint: exports return whole
// parcels, so their deadline must scale with the expected response the
// way a placement's scales with its request.
func (l *workerLink) requestHint(req []byte, respHint int) (*reader, error) {
	return l.requestCapped(req, respHint, time.Time{})
}

// requestCapped is requestHint with an absolute deadline cap: when the
// caller carries a per-op budget (Apply under admission control), the
// round trip must not outlive it, however large the link's size-scaled
// deadline would be. A zero cap means no cap.
func (l *workerLink) requestCapped(req []byte, respHint int, capAt time.Time) (*reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	conn, err := l.session()
	if err != nil {
		return nil, err
	}
	dl := l.deadline(len(req) + respHint)
	if !capAt.IsZero() && capAt.Before(dl) {
		dl = capAt
	}
	conn.SetDeadline(dl)
	r, err := roundTrip(conn, req)
	conn.SetDeadline(time.Time{})
	if err != nil && !IsRemote(err) {
		l.fail(conn)
	}
	return r, err
}

// Coordinator drives the distributed two-phase batch protocol over a set
// of shard workers while keeping the authoritative full graph locally (the
// serving side: engines, WAL, resync source). See the package comment for
// the state contract.
type Coordinator struct {
	g       *graph.Graph
	workers []*workerLink
	opts    CoordinatorOptions

	// mu guards the scheduling state below; cond wakes batches waiting for
	// their shards to free up.
	mu   sync.Mutex
	cond *sync.Cond
	// assign maps shard index → worker index.
	assign []int
	// busy marks shards of in-flight batches: two batches proceed
	// concurrently iff their TouchedShards sets are disjoint.
	busy []bool
	// dirty marks shards whose remote replica diverged (aborted batch,
	// worker restart); they are re-placed before next use.
	dirty []bool
	// replLast maps shard → the sequence of the last committed record
	// that touched it: the chain link the next replicate (or placement
	// reset) for the shard carries. Guarded by mu.
	replLast []uint64
	// lastGen is the post-commit generation of the latest committed batch
	// (initially the graph's generation at attach). Guarded by mu; it is
	// the generation placements stamp replicas with.
	lastGen uint64

	// logMu orders the pipelined durability-log appends: it is taken
	// before a batch's Log callback starts and held until its commit
	// completes, so log order equals commit order and the generation
	// stamped on each record is exactly the post-commit generation of the
	// previous batch — while the fsync itself overlaps the batch's own
	// phase-1 round trip.
	logMu sync.Mutex
	// commitMu serializes the local commit (phase 2 + the caller's
	// mutation of the authoritative graph and engines); the remote phase 1
	// of disjoint batches overlaps freely around it. The replication
	// sequence counter advances under it, so record order is commit order.
	commitMu sync.Mutex
	replSeq  uint64

	applied      atomic.Uint64
	remoteErrs   atomic.Uint64
	resyncs      atomic.Uint64
	replShipped  atomic.Uint64
	replDegraded atomic.Uint64

	// Anti-entropy counters; see scrub.go.
	scrubPasses     atomic.Uint64
	scrubChecked    atomic.Uint64
	scrubMismatches atomic.Uint64
	scrubHeals      atomic.Uint64
	scrubSkips      atomic.Uint64

	// quit stops the shipping goroutines; closed once by Close.
	quit     chan struct{}
	quitOnce sync.Once
}

// NewCoordinator attaches the links as shard workers of g: it handshakes
// each one at g's shard count and places every shard round-robin. g stays
// owned by the caller (it is the graph the engines and the durability
// layer see); the coordinator only requires that Apply/ApplyCommit is the
// sole mutation path while the cluster is attached. The zero options are
// term 0, no replication, the default call deadline and no commit hook.
func NewCoordinator(g *graph.Graph, links []Link, opts CoordinatorOptions) (*Coordinator, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	p := g.NumShards()
	c := &Coordinator{
		g:        g,
		opts:     opts,
		assign:   make([]int, p),
		busy:     make([]bool, p),
		dirty:    make([]bool, p),
		replLast: make([]uint64, p),
		lastGen:  g.Generation(),
		quit:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, l := range links {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("worker-%d", i)
		}
		wl := &workerLink{
			name: name, redial: l.Redial, conn: l.Conn,
			retries: l.Retries, timeout: opts.CallTimeout,
		}
		wl.applyQ.cond = sync.NewCond(&wl.applyQ.mu)
		c.workers = append(c.workers, wl)
	}
	held := make([]map[int]bool, len(c.workers))
	for i, l := range c.workers {
		owned, err := c.hello(l)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", l.name, err)
		}
		held[i] = owned
	}
	// Initial placement fans out per worker, like phase 1: requests to
	// distinct workers are independent (same-link requests serialize on
	// the link mutex), so startup costs the slowest worker, not the sum.
	byWorker := make([][]int, len(c.workers))
	for s := 0; s < p; s++ {
		c.assign[s] = s % len(c.workers)
		byWorker[c.assign[s]] = append(byWorker[c.assign[s]], s)
	}
	placeErrs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i := range c.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, s := range byWorker[i] {
				if err := c.place(c.workers[i], s); err != nil {
					placeErrs[i] = fmt.Errorf("cluster: placing shard %d: %w", s, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range placeErrs {
		if err != nil {
			return nil, err
		}
	}
	// A pre-populated worker (coordinator restart against still-running
	// workers) may hold replicas now assigned elsewhere: drop them so its
	// self-reported stats and memory reflect the new assignment, exactly
	// as ensureUp reconciles after a redial.
	for i, l := range c.workers {
		for s := range held[i] {
			if s < p && c.assign[s] != i {
				l.request(appendUvarint([]byte{byte(msgDrop)}, uint64(s)))
			}
		}
	}
	if c.opts.Repl != ReplOff {
		c.startShippers()
	}
	return c, nil
}

// hello opens a session at the coordinator's shard count and returns the
// shards the worker already holds.
func (c *Coordinator) hello(l *workerLink) (map[int]bool, error) {
	r, err := l.request(encodeHello(c.g.NumShards(), c.opts.Term))
	if err != nil {
		return nil, err
	}
	return decodeOwned(r)
}

// decodeOwned parses a hello response into an owned-shard set.
func decodeOwned(r *reader) (map[int]bool, error) {
	shards, err := decodeShardList(r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	owned := make(map[int]bool, len(shards))
	for _, s := range shards {
		owned[s] = true
	}
	return owned, nil
}

// place ships the authoritative segment of shard s to l, stamped with the
// shard's replication chain position and the last committed generation so
// the worker's replica log restarts exactly where the parcel's state ends.
// The caller must hold shard s (busy) or be inside NewCoordinator/reattach.
func (c *Coordinator) place(l *workerLink, s int) error {
	parcel, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return err
	}
	c.mu.Lock()
	replSeq := c.replLast[s]
	placeGen := c.lastGen
	c.mu.Unlock()
	req := appendUvarint([]byte{byte(msgPlace)}, uint64(s))
	req = appendUvarint(req, replSeq)
	req = appendUvarint(req, placeGen)
	r, err := l.request(append(req, parcel...))
	if err != nil {
		return err
	}
	return r.done()
}

// NumWorkers returns the worker count.
func (c *Coordinator) NumWorkers() int { return len(c.workers) }

// WorkerOf returns the index of the worker shard s is assigned to.
func (c *Coordinator) WorkerOf(s int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.assign[s]
}

// Applied returns the number of batches committed through the cluster.
func (c *Coordinator) Applied() uint64 { return c.applied.Load() }

// RemoteErrors returns the number of failed remote operations observed.
func (c *Coordinator) RemoteErrors() uint64 { return c.remoteErrs.Load() }

// Resyncs returns the number of shard re-placements performed after
// divergence (aborted batches, worker restarts).
func (c *Coordinator) Resyncs() uint64 { return c.resyncs.Load() }

// Term returns the coordinator's fencing term.
func (c *Coordinator) Term() uint64 { return c.opts.Term }

// ReplShipped returns the number of per-worker replicate requests fully
// acknowledged since attach.
func (c *Coordinator) ReplShipped() uint64 { return c.replShipped.Load() }

// ReplDegraded returns the number of committed batches whose replication
// fell short of the policy's ack requirement (the commit itself is
// unaffected — it was already locally durable).
func (c *Coordinator) ReplDegraded() uint64 { return c.replDegraded.Load() }

// ReplSeq returns the sequence of the last committed, replicated record.
func (c *Coordinator) ReplSeq() uint64 {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	return c.replSeq
}

// ErrOverloaded reports an Apply whose per-op deadline expired while
// waiting for its shards: the batch was shed before any remote work, the
// authoritative graph and every replica are untouched, and the client
// can safely retry. Serving layers map it to their explicit
// overload/backpressure reply instead of queuing unboundedly.
var ErrOverloaded = fmt.Errorf("cluster: overloaded: shard admission deadline exceeded")

// acquire blocks until every shard in touched is free, then marks them
// busy. touched must be sorted and duplicate-free (TouchedShards is).
func (c *Coordinator) acquire(touched []int) {
	c.acquireDeadline(touched, time.Time{})
}

// acquireDeadline is acquire with a give-up point: it reports whether the
// shards were acquired before deadline (zero = wait forever). On timeout
// nothing is held.
func (c *Coordinator) acquireDeadline(touched []int, deadline time.Time) bool {
	var wake *time.Timer
	if !deadline.IsZero() {
		// sync.Cond has no timed wait; a broadcast at the deadline bounds it.
		// Broadcasting under the lock orders it after the waiter enters Wait,
		// so the wakeup cannot slip between the deadline check and the sleep.
		wake = time.AfterFunc(time.Until(deadline), func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer wake.Stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		free := true
		for _, s := range touched {
			if c.busy[s] {
				free = false
				break
			}
		}
		if free {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return false
		}
		c.cond.Wait()
	}
	for _, s := range touched {
		c.busy[s] = true
	}
	return true
}

// release frees the shards and wakes waiting batches.
func (c *Coordinator) release(touched []int) {
	c.mu.Lock()
	for _, s := range touched {
		c.busy[s] = false
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// markDirty flags shards whose remote replica can no longer be trusted.
func (c *Coordinator) markDirty(shards []int) {
	c.mu.Lock()
	for _, s := range shards {
		c.dirty[s] = true
	}
	c.mu.Unlock()
}

// ensureUp reconnects a downed worker: redial, hello, then reconcile —
// assigned shards the (possibly restarted) worker no longer holds are
// marked dirty for re-placement, and holdovers from a previous assignment
// are dropped best-effort. The new session is published only after the
// handshake AND the dirty marks are in place: a concurrent disjoint batch
// must never reach a reattached worker that has not been helloed, nor see
// the link up before its lost shards are flagged for resync.
func (c *Coordinator) ensureUp(w int) error {
	l := c.workers[w]
	l.redialMu.Lock()
	defer l.redialMu.Unlock()
	if _, err := l.session(); err == nil {
		return nil
	}
	if l.redial == nil {
		return fmt.Errorf("cluster: worker %s is down and has no redial path", l.name)
	}
	conn, err := l.redial()
	if err != nil {
		return fmt.Errorf("cluster: worker %s: redial: %w", l.name, err)
	}
	// Handshake on the private, not-yet-published connection.
	conn.SetDeadline(l.deadline(0))
	r, err := roundTrip(conn, encodeHello(c.g.NumShards(), c.opts.Term))
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return fmt.Errorf("cluster: worker %s: hello: %w", l.name, err)
	}
	owned, err := decodeOwned(r)
	if err != nil {
		conn.Close()
		return fmt.Errorf("cluster: worker %s: hello: %w", l.name, err)
	}
	var stale []int
	c.mu.Lock()
	for s, wi := range c.assign {
		if wi == w && !owned[s] {
			c.dirty[s] = true
		}
		if wi != w && owned[s] {
			stale = append(stale, s)
		}
	}
	c.mu.Unlock()
	// The fresh session's label chain restarts at zero (the worker reset
	// its translation table at the hello above).
	l.applyQ.mu.Lock()
	l.applyQ.labelsSent = 0
	l.applyQ.mu.Unlock()
	l.connMu.Lock()
	l.conn = conn
	l.down = false
	l.connMu.Unlock()
	for _, s := range stale {
		req := appendUvarint([]byte{byte(msgDrop)}, uint64(s))
		l.request(req) // best-effort: a stale replica is inert
	}
	return nil
}

// prepareShards brings the remote side of the touched shards current:
// reconnect downed owners, re-place dirty replicas. Caller holds the
// shards busy. Never holds c.mu across an RPC.
func (c *Coordinator) prepareShards(touched []int) error {
	c.mu.Lock()
	owner := make([]int, len(touched))
	for i, s := range touched {
		owner[i] = c.assign[s]
	}
	c.mu.Unlock()
	// Reconnect downed owners first; a reattach may mark further shards
	// dirty (a restarted worker comes back empty).
	seen := make(map[int]bool, len(owner))
	for _, w := range owner {
		if seen[w] {
			continue
		}
		seen[w] = true
		if _, serr := c.workers[w].session(); serr != nil {
			if err := c.ensureUp(w); err != nil {
				return err
			}
		}
	}
	// Re-place diverged replicas from the authoritative segments, fanned
	// out per worker like the initial placement.
	need := make(map[int][]int)
	for i, s := range touched {
		c.mu.Lock()
		needs := c.dirty[s]
		c.mu.Unlock()
		if needs {
			need[owner[i]] = append(need[owner[i]], s)
		}
	}
	if len(need) == 0 {
		return nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w, shards := range need {
		wg.Add(1)
		go func(w int, shards []int) {
			defer wg.Done()
			for _, s := range shards {
				if err := c.place(c.workers[w], s); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("cluster: resync shard %d on %s: %w", s, c.workers[w].name, err)
					}
					errMu.Unlock()
					return
				}
				c.resyncs.Add(1)
				c.mu.Lock()
				c.dirty[s] = false
				c.mu.Unlock()
			}
		}(w, shards)
	}
	wg.Wait()
	return firstErr
}

// Commit is what a batch does locally once every worker has acknowledged
// phase 1: the caller's durability-log append and its authoritative
// application, split so the coordinator can pipeline them around the
// remote work.
type Commit struct {
	// Log, when set, appends the batch to the caller's durability log,
	// stamped with gen — the post-commit generation of the previous
	// committed batch (advisory; recovery checks monotonicity). It runs
	// concurrently with the batch's own phase-1 fan-out, ordered against
	// other batches' logs and commits by the coordinator.
	Log func(b graph.Batch, gen uint64) error
	// Unlog undoes the latest successful Log when the batch aborts after
	// logging (a phase-1 or commit failure). Required when Log is set.
	Unlog func() error
	// Apply is the commit itself: the local authoritative application —
	// the same ApplyBatch phase-2 merge in shard order, plus whatever
	// engines the caller maintains.
	Apply func(b graph.Batch) error
}

// Apply runs one batch through the distributed two-phase protocol:
//
//  1. The touched shards are locked (batches with disjoint TouchedShards
//     proceed concurrently), downed workers are reattached and diverged
//     replicas re-placed from authoritative segments.
//  2. The batch is validated and compiled into a per-shard plan
//     (graph.PlanBatch) against the authoritative graph.
//  3. Phase 1 fans the effects out to the owning workers in parallel;
//     every worker applies its shards' slices and reports per-shard
//     edge-count deltas, which are cross-checked against the plan.
//  4. Only after every worker acknowledged does commit run (serialized
//     across batches): the caller's local application — the same
//     ApplyBatch phase-2 merge in shard order, plus engines and WAL —
//     making the distributed result byte-identical to single-process.
//
// Failure anywhere before commit aborts the batch atomically: commit never
// runs, the authoritative graph is untouched, and every shard the batch
// planned to touch is marked for re-placement (workers that applied the
// aborted effects are resynced before those shards are used again).
func (c *Coordinator) Apply(b graph.Batch, commit func(graph.Batch) error) error {
	return c.ApplyCommit(b, time.Time{}, Commit{Apply: commit})
}

// ApplyCommit is the entry point behind Apply: the commit callback is
// split into its log and apply halves so the durability write overlaps
// phase 1 (see Commit), and the batch carries the serving layer's per-op
// budget. Everything Apply documents — atomic abort, byte-identity with
// the single-process path — holds unchanged; a batch that aborts after its
// record was logged takes the record back, and an Unlog that fails is
// wrapped into the returned error beside the abort's cause (the log then
// holds a record for a batch that never committed).
//
// The deadline bounds the shard-admission wait — a batch still queued
// behind conflicting batches at the deadline is shed with ErrOverloaded,
// nothing applied anywhere, safe to retry — and caps every phase-1 round
// trip, so one op cannot hold its shards for the transport's full
// size-scaled deadline when the client's budget is smaller. Repair traffic
// (redial, parcel resync) keeps its own deadlines: healing a diverged
// replica is not the client op's work to bound, and capping it would just
// make the next op repeat it. A zero deadline means no budget.
func (c *Coordinator) ApplyCommit(b graph.Batch, deadline time.Time, cb Commit) error {
	if cb.Log != nil && cb.Unlog == nil {
		return fmt.Errorf("cluster: Commit.Log without Commit.Unlog: an aborted batch could not take its record back")
	}
	touched := b.TouchedShards(c.g)
	if !c.acquireDeadline(touched, deadline) {
		return ErrOverloaded
	}
	defer c.release(touched)

	if err := c.prepareShards(touched); err != nil {
		c.remoteErrs.Add(1)
		return err
	}

	plan, ok := c.g.PlanBatch(b)
	if !ok {
		if err := c.g.ValidateBatch(b); err != nil {
			return err
		}
		return fmt.Errorf("cluster: batch plan failed without a validation error")
	}
	defer plan.Release()
	shards := plan.TouchedShards()

	// Group the shards per owning worker, preserving shard order within
	// each group (workers apply and report in request order).
	nw := len(c.workers)
	grouped := make([][]int, nw)
	c.mu.Lock()
	for _, s := range shards {
		w := c.assign[s]
		grouped[w] = append(grouped[w], s)
	}
	c.mu.Unlock()
	var workerIDs []int
	var shardsByWorker [][]int
	for w := 0; w < nw; w++ {
		if len(grouped[w]) > 0 {
			workerIDs = append(workerIDs, w)
			shardsByWorker = append(shardsByWorker, grouped[w])
		}
	}

	// Past the admission wait but out of budget: shed before any remote
	// work, while the abort is still free (no worker has applied anything,
	// so no shard needs resync).
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return ErrOverloaded
	}

	// Pipelined durability: the log append starts now, concurrent with the
	// batch's own phase-1 round trips. logMu is taken before the append and
	// held through the commit, so across batches log order equals commit
	// order and the stamped generation is exact (the previous commit's
	// postGen) — the WAL byte stream is that of a single-process serial run.
	pipelined := cb.Log != nil
	var (
		logErr  error
		logDone chan struct{}
	)
	if pipelined {
		logDone = make(chan struct{})
		go func() {
			c.logMu.Lock()
			c.mu.Lock()
			gen := c.lastGen
			c.mu.Unlock()
			logErr = cb.Log(b, gen)
			close(logDone)
		}()
	}

	// Phase 1: one group send per involved worker, each capped by the op's
	// remaining budget. Calls to the same worker from concurrently admitted
	// batches coalesce (sendApply); the single-worker case stays on this
	// goroutine.
	calls := make([]*applyCall, len(workerIDs))
	for i := range workerIDs {
		call := getApplyCall()
		call.body = appendApplyBatch(call.body, plan, shardsByWorker[i])
		call.capAt = deadline
		calls[i] = call
	}
	var phase1Err error
	if len(workerIDs) == 1 {
		if err := c.sendApply(c.workers[workerIDs[0]], calls[0]); err != nil {
			phase1Err = fmt.Errorf("cluster: phase 1 on %s: %w", c.workers[workerIDs[0]].name, err)
		}
	} else if len(workerIDs) > 1 {
		errs := make([]error, len(workerIDs))
		var wg sync.WaitGroup
		send := func(i, w int) {
			if err := c.sendApply(c.workers[w], calls[i]); err != nil {
				errs[i] = fmt.Errorf("cluster: phase 1 on %s: %w", c.workers[w].name, err)
			}
		}
		for i := 1; i < len(workerIDs); i++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				send(i, w)
			}(i, workerIDs[i])
		}
		// The first worker's round trip rides this goroutine — one fewer
		// spawn per apply, overlapping the spawned sends all the same.
		send(0, workerIDs[0])
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				phase1Err = err
				break
			}
		}
	}

	// Phase 2 cross-check: the per-shard deltas are a pure function of the
	// plan; a mismatch means the replica diverged from the authoritative
	// shard. Checked in shard order, like the merge itself.
	if phase1Err == nil {
		for i, w := range workerIDs {
			ws := shardsByWorker[i]
			got := calls[i].deltas
			if len(got) != len(ws) {
				phase1Err = fmt.Errorf("cluster: %s reported %d shard deltas, want %d",
					c.workers[w].name, len(got), len(ws))
				break
			}
			for j, s := range ws {
				if got[j].shard != s || got[j].delta != plan.EdgeDelta(s) {
					phase1Err = fmt.Errorf("cluster: shard %d on %s diverged: edge delta %d, want %d",
						s, c.workers[w].name, got[j].delta, plan.EdgeDelta(s))
					break
				}
			}
			if phase1Err != nil {
				break
			}
		}
	}
	for _, call := range calls {
		applyCallPool.Put(call)
	}

	abort := func(err error) error {
		c.markDirty(shards)
		c.remoteErrs.Add(1)
		return err
	}
	if pipelined {
		<-logDone
	}
	if phase1Err != nil {
		if pipelined {
			if logErr == nil {
				phase1Err = joinUnlog(phase1Err, cb.Unlog())
			}
			c.logMu.Unlock()
		}
		return abort(phase1Err)
	}
	if pipelined && logErr != nil {
		c.logMu.Unlock()
		return abort(fmt.Errorf("cluster: log after phase 1; resyncing: %w", logErr))
	}

	// Commit: the local, authoritative application — serialized, because
	// it merges into graph-global state. When replication is on, the
	// record's sequence and per-shard chain links are assigned here too,
	// so replication order is commit order.
	c.commitMu.Lock()
	var rep *replRecord
	preGen := c.g.Generation()
	err := cb.Apply(b)
	if err == nil {
		postGen := c.g.Generation()
		c.mu.Lock()
		c.lastGen = postGen
		c.replSeq++
		seq := c.replSeq
		if c.opts.Repl != ReplOff {
			rep = &replRecord{seq: seq, preGen: preGen, postGen: postGen,
				prev: make(map[int]uint64, len(shards))}
			for _, s := range shards {
				rep.prev[s] = c.replLast[s]
				c.replLast[s] = seq
			}
		} else {
			for _, s := range shards {
				c.replLast[s] = seq
			}
		}
		c.mu.Unlock()
		// The standby feed runs inside the commit critical section:
		// Hub.Feed requires commit order across ALL batches, and the
		// per-shard locks alone would let two disjoint batches' post-unlock
		// feeds invert (the standby's generation check then rejects the
		// reordered record and marks a healthy replica stale). Feed only
		// enqueues — it never waits on a standby — so this does not extend
		// the serialized section by any network time.
		if c.opts.OnCommit != nil {
			c.opts.OnCommit(seq, preGen, postGen, b)
		}
	}
	c.commitMu.Unlock()
	if err != nil {
		// Workers applied a batch the authoritative side rejected.
		err = fmt.Errorf("cluster: commit failed after phase 1; resyncing: %w", err)
		if pipelined {
			// The record is logged but will never apply: take it back so
			// the WAL keeps matching the committed state.
			err = joinUnlog(err, cb.Unlog())
		}
	}
	if pipelined {
		c.logMu.Unlock()
	}
	if err != nil {
		return abort(err)
	}
	c.applied.Add(1)
	// Worker log shipping fans out while the touched shards are still
	// held, so same-shard records stay in commit order (cross-shard order
	// is irrelevant to the per-shard chains). It cannot fail the batch —
	// it is already durable locally.
	if c.opts.Repl != ReplOff {
		c.replicate(b, workerIDs, shardsByWorker, rep)
	}
	return nil
}

// joinUnlog adds a failed Unlog to the abort it happened under: the caller's
// log still holds the record of a batch it is being told did not commit.
// Both errors stay matchable, on one line (errors.Join would put a newline
// into what serving layers send as a one-line reply).
func joinUnlog(abort, unlogErr error) error {
	if unlogErr == nil {
		return abort
	}
	return fmt.Errorf("%w; and its log record could not be taken back: %w", abort, unlogErr)
}

// MoveShard rebalances shard s onto worker w: the authoritative segment is
// shipped to the new owner, the old replica is dropped (best-effort), and
// the assignment flips. Safe between and during Apply traffic — the shard
// is locked like a batch touching it.
func (c *Coordinator) MoveShard(s, w int) error {
	if s < 0 || s >= c.g.NumShards() {
		return fmt.Errorf("cluster: MoveShard: shard %d out of range [0,%d)", s, c.g.NumShards())
	}
	if w < 0 || w >= len(c.workers) {
		return fmt.Errorf("cluster: MoveShard: worker %d out of range [0,%d)", w, len(c.workers))
	}
	touched := []int{s}
	c.acquire(touched)
	defer c.release(touched)
	c.mu.Lock()
	old := c.assign[s]
	c.mu.Unlock()
	if old == w {
		return nil
	}
	if err := c.ensureUp(w); err != nil {
		return err
	}
	if err := c.place(c.workers[w], s); err != nil {
		c.remoteErrs.Add(1)
		return fmt.Errorf("cluster: MoveShard: placing shard %d on %s: %w", s, c.workers[w].name, err)
	}
	c.mu.Lock()
	c.assign[s] = w
	c.dirty[s] = false
	c.mu.Unlock()
	req := appendUvarint([]byte{byte(msgDrop)}, uint64(s))
	c.workers[old].request(req) // best-effort: stale replicas are inert
	return nil
}

// VerifyShard compares the remote replica of shard s against the
// authoritative local segment, byte for byte (parcels are deterministic).
// It is the distributed analogue of the snapshot round-trip check.
func (c *Coordinator) VerifyShard(s int) error {
	if s < 0 || s >= c.g.NumShards() {
		return fmt.Errorf("cluster: VerifyShard: shard %d out of range [0,%d)", s, c.g.NumShards())
	}
	touched := []int{s}
	c.acquire(touched)
	defer c.release(touched)
	c.mu.Lock()
	w := c.assign[s]
	c.mu.Unlock()
	want, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return err
	}
	r, err := c.workers[w].requestHint(appendUvarint([]byte{byte(msgExport)}, uint64(s)), len(want))
	if err != nil {
		return fmt.Errorf("cluster: export shard %d from %s: %w", s, c.workers[w].name, err)
	}
	if got := r.rest(); !bytes.Equal(got, want) {
		return fmt.Errorf("cluster: shard %d on %s diverged: parcel %d bytes != authoritative %d bytes",
			s, c.workers[w].name, len(got), len(want))
	}
	return nil
}

// VerifyAll runs VerifyShard over every shard.
func (c *Coordinator) VerifyAll() error {
	for s := 0; s < c.g.NumShards(); s++ {
		if err := c.VerifyShard(s); err != nil {
			return err
		}
	}
	return nil
}

// Stat is one worker's view in Stats.
type Stat struct {
	Name string
	// Down reports a broken session awaiting redial.
	Down bool
	// Busy reports a link mid-request (a large placement, a slow phase 1):
	// the worker is up but was not polled, so Remote is zero-valued.
	Busy bool
	// Assigned is the number of shards assigned to this worker.
	Assigned int
	// Retries is the transport's cumulative dial attempt count (zero when
	// the link has no Dialer-style transport).
	Retries uint64
	// Remote is the worker's self-report; zero-valued when Down or Busy.
	Remote WorkerStat
}

// statTimeout bounds one health poll: operators read stats during
// incidents, exactly when a full rpcTimeout wait is unaffordable. A poll
// that times out closes the session (a late response would desync the
// request/response stream), which the next batch heals via redial —
// links without a Redial path lose the worker permanently, one reason
// Link.Redial is strongly recommended outside tests.
const statTimeout = 5 * time.Second

// Stats polls every worker (best-effort, short deadline, never queuing
// behind an in-flight request) and returns per-worker stats.
func (c *Coordinator) Stats() []Stat {
	return c.StatsWithin(statTimeout)
}

// StatsWithin is Stats with an explicit per-worker poll deadline. Workers
// are polled in parallel, so the whole call is bounded by one timeout —
// not timeout × dead workers — which is what lets a serving layer answer
// "stat" in bounded time during exactly the incidents stats exist for.
func (c *Coordinator) StatsWithin(timeout time.Duration) []Stat {
	if timeout <= 0 {
		timeout = statTimeout
	}
	out := make([]Stat, len(c.workers))
	c.mu.Lock()
	assigned := make([]int, len(c.workers))
	for _, w := range c.assign {
		assigned[w]++
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for i, l := range c.workers {
		wg.Add(1)
		go func(i int, l *workerLink) {
			defer wg.Done()
			st := Stat{Name: l.name, Assigned: assigned[i]}
			if l.retries != nil {
				st.Retries = l.retries.Load()
			}
			if !l.mu.TryLock() {
				st.Busy = true
				out[i] = st
				return
			}
			conn, err := l.session()
			if err != nil {
				l.mu.Unlock()
				st.Down = true
				out[i] = st
				return
			}
			conn.SetDeadline(time.Now().Add(timeout))
			r, rerr := roundTrip(conn, []byte{byte(msgStat)})
			conn.SetDeadline(time.Time{})
			if rerr != nil && !IsRemote(rerr) {
				l.fail(conn)
			}
			l.mu.Unlock()
			if rerr != nil {
				st.Down = true
			} else if remote, derr := decodeStat(r); derr == nil {
				st.Remote = remote
			}
			out[i] = st
		}(i, l)
	}
	wg.Wait()
	return out
}

// Close tears down every worker session. It takes only connMu — never the
// request mutex — so an RPC in flight to a stalled worker is interrupted
// (its blocked read fails as the conn closes) instead of pinning shutdown
// until the RPC deadline expires.
func (c *Coordinator) Close() error {
	c.quitOnce.Do(func() { close(c.quit) })
	for _, l := range c.workers {
		l.connMu.Lock()
		if l.conn != nil {
			l.conn.Close()
			l.down = true
		}
		l.connMu.Unlock()
	}
	return nil
}
