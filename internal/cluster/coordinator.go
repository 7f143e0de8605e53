package cluster

import (
	"bytes"
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
	// Name labels the worker in errors (an address, usually).
	Name string
}

// workerLink is the coordinator's per-worker session state. Its mutex
// serializes requests on the connection (the protocol is one request in
// flight per session). The lock order is Coordinator.mu → mu → connMu.
type workerLink struct {
	name   string
	redial func() (net.Conn, error)
	// timeout is the base per-call deadline (rpcTimeout unless the
	// coordinator was built with CallTimeout).
	timeout time.Duration
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

	// Phase-1 session state, guarded by Coordinator.mu (phase 1 runs under
	// it). labelsSent counts the intern-table prefix already shipped on this
	// session — the next apply's label delta starts there — and ensureUp
	// resets it with the session; frame and deltas are reused scratch.
	labelsSent int
	frame      []byte
	deltas     []shardDelta
}

// sendApply ships one batch's phase-1 share to l — the session's label
// delta, then the plan's effects for shards — and returns the worker's
// per-shard edge deltas, valid until the next call.
func (l *workerLink) sendApply(plan *graph.Plan, shards []int) ([]shardDelta, error) {
	cur := graph.InternedLabels()
	frame := append(l.frame[:0], zeroFrameHeader[:]...)
	frame = appendApplyHeader(frame, l.labelsSent, cur)
	frame = appendApplyBatch(frame, plan, shards)
	l.frame = frame[:0]
	// Advanced optimistically: a failed send poisons the session, and the
	// reattach handshake resets the counter with it.
	l.labelsSent = cur
	r, err := l.requestPrefixed(frame)
	if err != nil {
		if IsRemote(err) {
			// An envelope-level rejection (fencing, label-chain mismatch)
			// leaves the session's label state untrustworthy: drop the
			// connection so the next batch re-handshakes from scratch.
			l.poison()
		}
		return nil, err
	}
	deltas, err := decodeBatchResult(r, l.deltas[:0])
	if err == nil {
		l.deltas = deltas
		err = r.done()
	}
	if err != nil && !IsRemote(err) {
		// A malformed response: the stream cannot be trusted either.
		l.poison()
	}
	return deltas, err
}

// requestPrefixed is request for header-prefixed frames: one write out,
// response decoded into the link's reusable scratch.
func (l *workerLink) requestPrefixed(frame []byte) (*reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	conn, err := l.session()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(l.deadline(len(frame)))
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

// deadline is the link's per-call deadline: the coordinator's configured
// base (CallTimeout, default rpcTimeout) scaled with the request size, so
// a multi-hundred-MB shard parcel on a slow link gets proportionally
// longer than a 20-byte drop instead of timing out forever on retry:
// the base covers latency and the response, plus one second per MiB
// shipped (a ≥1 MiB/s floor on usable links).
func (l *workerLink) deadline(reqBytes int) time.Time {
	base := l.timeout
	if base <= 0 {
		base = rpcTimeout
	}
	return time.Now().Add(base + time.Duration(reqBytes>>20)*time.Second)
}

// request performs one round trip, marking the link down on transport
// failure (remote errors leave the session usable).
func (l *workerLink) request(req []byte) (*reader, error) {
	return l.requestHint(req, 0)
}

// requestHint is request with a response-size hint: exports return whole
// parcels, so their deadline must scale with the expected response the
// way a placement's scales with its request.
func (l *workerLink) requestHint(req []byte, respHint int) (*reader, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	conn, err := l.session()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(l.deadline(len(req) + respHint))
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

	// mu is the coordinator mutex. Apply holds it from plan to commit, and
	// VerifyShard holds it for its RPC, so one batch at a time meets the
	// workers and the authoritative graph. It guards dirty and every link's
	// phase-1 session state.
	mu sync.Mutex
	// dirty marks shards whose remote replica diverged (aborted batch,
	// worker restart); they are re-placed before next use.
	dirty []bool

	applied    atomic.Uint64
	remoteErrs atomic.Uint64
	resyncs    atomic.Uint64
}

// CoordinatorOptions tunes NewCoordinator.
type CoordinatorOptions struct {
	// Term is the coordinator's fencing term. Workers remember the
	// highest term they have seen; a promoted standby attaches at a
	// higher term, which fences every session of the coordinator it
	// replaced (their mutating requests are rejected).
	Term uint64
	// CallTimeout overrides the per-RPC base deadline (default 60s); it
	// still scales with request size. Fault drills shorten it so dropped
	// frames fail in milliseconds instead of a minute.
	CallTimeout time.Duration
}

// NewCoordinator attaches the links as shard workers of g: it handshakes
// each one at g's shard count and places every shard round-robin. g stays
// owned by the caller (it is the graph the engines and the durability
// layer see); the coordinator only requires that Apply is the sole
// mutation path while the cluster is attached. The zero options are term
// 0 and the default call deadline.
func NewCoordinator(g *graph.Graph, links []Link, opts CoordinatorOptions) (*Coordinator, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	p := g.NumShards()
	c := &Coordinator{
		g:     g,
		opts:  opts,
		dirty: make([]bool, p),
	}
	for i, l := range links {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("worker-%d", i)
		}
		c.workers = append(c.workers, &workerLink{
			name: name, redial: l.Redial, conn: l.Conn,
			timeout: opts.CallTimeout,
		})
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
		w := c.WorkerOf(s)
		byWorker[w] = append(byWorker[w], s)
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
	// memory reflects the new assignment, exactly as ensureUp reconciles
	// after a redial.
	for i, l := range c.workers {
		for s := range held[i] {
			if s < p && c.WorkerOf(s) != i {
				l.request(appendUvarint([]byte{byte(msgDrop)}, uint64(s)))
			}
		}
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

// place ships the authoritative segment of shard s to l. The caller holds
// mu or is inside NewCoordinator.
func (c *Coordinator) place(l *workerLink, s int) error {
	parcel, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return err
	}
	req := appendUvarint([]byte{byte(msgPlace)}, uint64(s))
	r, err := l.request(append(req, parcel...))
	if err != nil {
		return err
	}
	return r.done()
}

// WorkerOf returns the index of the worker shard s is assigned to.
// Placement is round-robin and fixed for the coordinator's lifetime.
func (c *Coordinator) WorkerOf(s int) int { return s % len(c.workers) }

// Applied returns the number of batches committed through the cluster.
func (c *Coordinator) Applied() uint64 { return c.applied.Load() }

// RemoteErrors returns the number of failed remote operations observed.
func (c *Coordinator) RemoteErrors() uint64 { return c.remoteErrs.Load() }

// Resyncs returns the number of shard re-placements performed after
// divergence (aborted batches, worker restarts).
func (c *Coordinator) Resyncs() uint64 { return c.resyncs.Load() }

// ensureUp reconnects a downed worker: redial, hello, then reconcile —
// assigned shards the (possibly restarted) worker no longer holds are
// marked dirty for re-placement, and holdovers from a previous assignment
// are dropped best-effort. The caller holds mu.
func (c *Coordinator) ensureUp(w int) error {
	l := c.workers[w]
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
	for s := 0; s < c.g.NumShards(); s++ {
		wi := c.WorkerOf(s)
		if wi == w && !owned[s] {
			c.dirty[s] = true
		}
		if wi != w && owned[s] {
			stale = append(stale, s)
		}
	}
	// The fresh session's label chain restarts at zero (the worker reset
	// its translation table at the hello above).
	l.labelsSent = 0
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
// reconnect downed owners, re-place dirty replicas. The caller holds mu.
func (c *Coordinator) prepareShards(touched []int) error {
	// Reconnect downed owners first; a reattach may mark further shards
	// dirty (a restarted worker comes back empty).
	seen := make(map[int]bool, len(c.workers))
	for _, s := range touched {
		w := c.WorkerOf(s)
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
	// out per worker like the initial placement. Each goroutine clears the
	// dirty marks of its own shards only.
	need := make(map[int][]int)
	for _, s := range touched {
		if c.dirty[s] {
			w := c.WorkerOf(s)
			need[w] = append(need[w], s)
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
				c.dirty[s] = false
			}
		}(w, shards)
	}
	wg.Wait()
	return firstErr
}

// Apply runs one batch through the distributed two-phase protocol, then
// commits it locally:
//
//  1. Downed owners of the batch's shards are reattached and diverged
//     replicas re-placed from authoritative segments.
//  2. The batch is validated and compiled into a per-shard plan
//     (graph.PlanBatch) against the authoritative graph.
//  3. Phase 1 fans the effects out to the owning workers in parallel;
//     every worker applies its shards' slices and reports per-shard
//     edge-count deltas, which are cross-checked against the plan.
//  4. Only after every worker acknowledged does commit run: the caller's
//     local commit — its durability log, then the same ApplyBatch phase-2
//     merge in shard order on the authoritative graph, plus engines —
//     making the distributed result byte-identical to single-process.
//
// The coordinator mutex is held throughout, so batches meet the workers
// and the authoritative graph one at a time, in the order they took it;
// commit runs under it too, and so must not call back into the
// coordinator.
//
// Failure anywhere before commit aborts the batch atomically: commit never
// runs, the authoritative graph is untouched, and every shard the batch
// planned to touch is marked for re-placement (workers that applied the
// aborted effects are resynced before those shards are used again). A
// commit that fails aborts the same way; the caller's own state is the
// caller's to keep whole (Durable.Commit logs nothing it does not apply).
func (c *Coordinator) Apply(b graph.Batch, commit func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.prepareShards(b.TouchedShards(c.g)); err != nil {
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
	grouped := make([][]int, len(c.workers))
	for _, s := range shards {
		w := c.WorkerOf(s)
		grouped[w] = append(grouped[w], s)
	}
	var workerIDs []int
	for w, ws := range grouped {
		if len(ws) > 0 {
			workerIDs = append(workerIDs, w)
		}
	}

	// Phase 1: one apply per involved worker. The first worker's round trip
	// rides this goroutine.
	deltas := make([][]shardDelta, len(workerIDs))
	errs := make([]error, len(workerIDs))
	send := func(i int) {
		l := c.workers[workerIDs[i]]
		if deltas[i], errs[i] = l.sendApply(plan, grouped[workerIDs[i]]); errs[i] != nil {
			errs[i] = fmt.Errorf("cluster: phase 1 on %s: %w", l.name, errs[i])
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(workerIDs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(i)
		}(i)
	}
	if len(workerIDs) > 0 {
		send(0)
	}
	wg.Wait()
	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}

	// Phase 2 cross-check: the per-shard deltas are a pure function of the
	// plan; a mismatch means the replica diverged from the authoritative
	// shard. Checked in shard order, like the merge itself.
	for i := 0; err == nil && i < len(workerIDs); i++ {
		name, ws, got := c.workers[workerIDs[i]].name, grouped[workerIDs[i]], deltas[i]
		if len(got) != len(ws) {
			err = fmt.Errorf("cluster: %s reported %d shard deltas, want %d", name, len(got), len(ws))
			break
		}
		for j, s := range ws {
			if got[j].shard != s || got[j].delta != plan.EdgeDelta(s) {
				err = fmt.Errorf("cluster: shard %d on %s diverged: edge delta %d, want %d",
					s, name, got[j].delta, plan.EdgeDelta(s))
				break
			}
		}
	}

	if err == nil {
		if err = commit(); err != nil {
			// Workers applied a batch the caller did not commit.
			err = fmt.Errorf("cluster: commit failed after phase 1; resyncing: %w", err)
		}
	}
	if err != nil {
		for _, s := range shards {
			c.dirty[s] = true
		}
		c.remoteErrs.Add(1)
		return err
	}
	c.applied.Add(1)
	return nil
}

// VerifyShard compares the remote replica of shard s against the
// authoritative local segment, byte for byte (parcels are deterministic).
// It is the distributed analogue of the snapshot round-trip check, and
// holds the coordinator mutex like a batch.
func (c *Coordinator) VerifyShard(s int) error {
	if s < 0 || s >= c.g.NumShards() {
		return fmt.Errorf("cluster: VerifyShard: shard %d out of range [0,%d)", s, c.g.NumShards())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.workers[c.WorkerOf(s)]
	want, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return err
	}
	r, err := l.requestHint(appendUvarint([]byte{byte(msgExport)}, uint64(s)), len(want))
	if err != nil {
		return fmt.Errorf("cluster: export shard %d from %s: %w", s, l.name, err)
	}
	if got := r.rest(); !bytes.Equal(got, want) {
		return fmt.Errorf("cluster: shard %d on %s diverged: parcel %d bytes != authoritative %d bytes",
			s, l.name, len(got), len(want))
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

// Close tears down every worker session. It takes only connMu — never the
// request mutex — so an RPC in flight to a stalled worker is interrupted
// (its blocked read fails as the conn closes) instead of pinning shutdown
// until the RPC deadline expires.
func (c *Coordinator) Close() error {
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
