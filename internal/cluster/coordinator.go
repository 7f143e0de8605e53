package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// Link is one worker connection handed to NewCoordinator.
type Link struct {
	Conn net.Conn
	// Name labels the worker in errors (an address, usually).
	Name string
}

// workerLink is the coordinator's session with one worker. The protocol
// is one request in flight per session; Coordinator.mu, held by every
// caller that talks to a worker, serializes them, and phase 1 sends to
// distinct workers in parallel.
type workerLink struct {
	name string
	conn net.Conn
	// respBuf is the apply fast path's response scratch.
	respBuf []byte
	// labelsSent counts the intern-table prefix already shipped on this
	// session — the next apply's label delta starts there; frame and
	// deltas are reused scratch.
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
	// Advanced optimistically: a failed send fails the coordinator, which
	// never sends on this session again.
	l.labelsSent = cur
	r, err := l.requestPrefixed(frame)
	if err != nil {
		return nil, err
	}
	deltas, err := decodeBatchResult(r, l.deltas[:0])
	if err == nil {
		l.deltas = deltas
		err = r.done()
	}
	return deltas, err
}

// requestPrefixed is request for header-prefixed frames: one write out,
// response decoded into the link's reusable scratch.
func (l *workerLink) requestPrefixed(frame []byte) (*reader, error) {
	l.conn.SetDeadline(deadline(len(frame)))
	err := writeFramePrefixed(l.conn, frame)
	var payload []byte
	if err == nil {
		payload, err = readFrameInto(l.conn, l.respBuf, maxFrame)
	}
	l.conn.SetDeadline(time.Time{})
	if err != nil {
		l.conn.Close()
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

// rpcTimeout bounds one request round trip. A worker that is stalled
// rather than dead (SIGSTOP, network black hole) must not wedge the
// coordinator: past the deadline the request errors and the coordinator
// fails.
const rpcTimeout = 60 * time.Second

// deadline is a call's deadline: rpcTimeout scaled with the request size,
// so a multi-hundred-MB shard parcel on a slow link gets proportionally
// longer than a 20-byte apply: the base covers latency and the response,
// plus one second per MiB shipped (a ≥1 MiB/s floor on usable links).
func deadline(reqBytes int) time.Time {
	return time.Now().Add(rpcTimeout + time.Duration(reqBytes>>20)*time.Second)
}

// request performs one round trip; respHint is the expected response size
// (exports return whole parcels, so their deadline must scale with it the
// way a placement's scales with its request). A transport failure closes
// the session: a stream that lost a frame cannot be trusted again.
func (l *workerLink) request(req []byte, respHint int) (*reader, error) {
	l.conn.SetDeadline(deadline(len(req) + respHint))
	r, err := roundTrip(l.conn, req)
	l.conn.SetDeadline(time.Time{})
	if err != nil && !IsRemote(err) {
		l.conn.Close()
	}
	return r, err
}

// Coordinator drives the distributed two-phase batch protocol over a set
// of shard workers while keeping the authoritative full graph locally (the
// serving side: engines, WAL, placement source). See the package comment
// for the state contract.
//
// The coordinator is fail-stop: the first Apply that fails after planning
// — in phase 1, in the cross-check, or in the caller's commit — leaves the
// workers' copies in an unknown state, so the coordinator keeps that error
// and every later Apply and VerifyShard returns it without touching a
// worker or calling commit. A caller that wants to go on commits locally,
// or attaches a new coordinator over fresh workers.
type Coordinator struct {
	g       *graph.Graph
	workers []*workerLink

	// mu is the coordinator mutex. Apply holds it from plan to commit, and
	// VerifyShard holds it for its RPC, so one batch at a time meets the
	// workers and the authoritative graph. It guards failed and every
	// link's session state.
	mu     sync.Mutex
	failed error
}

// NewCoordinator attaches the links as shard workers of g: it handshakes
// each one at g's shard count, which resets the worker, and places every
// shard round-robin. g stays owned by the caller (it is the graph the
// engines and the durability layer see); the coordinator only requires
// that Apply is the sole mutation path while the cluster is attached.
func NewCoordinator(g *graph.Graph, links []Link) (*Coordinator, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	c := &Coordinator{g: g}
	for i, l := range links {
		name := l.Name
		if name == "" {
			name = fmt.Sprintf("worker-%d", i)
		}
		c.workers = append(c.workers, &workerLink{name: name, conn: l.Conn})
	}
	for _, l := range c.workers {
		r, err := l.request(encodeHello(g.NumShards()), 0)
		if err == nil {
			err = r.done()
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", l.name, err)
		}
	}
	// Initial placement fans out per worker, like phase 1: requests to
	// distinct workers are independent, so startup costs the slowest
	// worker, not the sum.
	byWorker := make([][]int, len(c.workers))
	for s := 0; s < g.NumShards(); s++ {
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
	return c, nil
}

// place ships the authoritative segment of shard s to l; it runs inside
// NewCoordinator only.
func (c *Coordinator) place(l *workerLink, s int) error {
	parcel, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return err
	}
	req := appendUvarint([]byte{byte(msgPlace)}, uint64(s))
	r, err := l.request(append(req, parcel...), 0)
	if err != nil {
		return err
	}
	return r.done()
}

// WorkerOf returns the index of the worker shard s is assigned to.
// Placement is round-robin and fixed for the coordinator's lifetime.
func (c *Coordinator) WorkerOf(s int) int { return s % len(c.workers) }

// errFailed wraps the failure a fail-stopped coordinator keeps. The
// caller holds mu.
func (c *Coordinator) errFailed() error {
	return fmt.Errorf("cluster: coordinator stopped after an earlier failure: %w", c.failed)
}

// Apply runs one batch through the distributed two-phase protocol, then
// commits it locally:
//
//  1. The batch is validated and compiled into a per-shard plan
//     (graph.PlanBatch) against the authoritative graph. An invalid batch
//     is rejected here, before any worker sees it, and the coordinator
//     goes on.
//  2. Phase 1 fans the effects out to the owning workers in parallel;
//     every worker applies its shards' slices and reports per-shard
//     edge-count deltas, which are cross-checked against the plan.
//  3. Only after every worker acknowledged does commit run: the caller's
//     local commit — its durability log, then the same ApplyBatch phase-2
//     merge in shard order on the authoritative graph, plus engines —
//     making the distributed result byte-identical to single-process.
//
// The coordinator mutex is held throughout, so batches meet the workers
// and the authoritative graph one at a time, in the order they took it;
// commit runs under it too, and so must not call back into the
// coordinator.
//
// A failure in phase 1 or the cross-check means commit never runs: the
// authoritative graph is untouched. A commit that fails leaves the
// caller's state to the caller (Durable.Commit logs nothing it does not
// apply). Either way the workers may hold effects the authoritative graph
// does not, and the coordinator fails stop: this and every later Apply
// return the first failure.
func (c *Coordinator) Apply(b graph.Batch, commit func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return c.errFailed()
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
			err = fmt.Errorf("cluster: commit failed after phase 1: %w", err)
		}
	}
	if err != nil {
		c.failed = err
	}
	return err
}

// VerifyShard compares the remote replica of shard s against the
// authoritative local segment, byte for byte (parcels are deterministic).
// It is the distributed analogue of the snapshot round-trip check, and
// holds the coordinator mutex like a batch. A failed coordinator returns
// its failure.
func (c *Coordinator) VerifyShard(s int) error {
	if s < 0 || s >= c.g.NumShards() {
		return fmt.Errorf("cluster: VerifyShard: shard %d out of range [0,%d)", s, c.g.NumShards())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return c.errFailed()
	}
	l := c.workers[c.WorkerOf(s)]
	want, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return err
	}
	r, err := l.request(appendUvarint([]byte{byte(msgExport)}, uint64(s)), len(want))
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

// Close tears down every worker session. It takes no lock, so an RPC in
// flight to a stalled worker is interrupted (its blocked read fails as the
// conn closes) instead of pinning shutdown until the RPC deadline expires.
func (c *Coordinator) Close() error {
	for _, l := range c.workers {
		l.conn.Close()
	}
	return nil
}
