package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// Standby failover. A Hub runs next to the primary and feeds committed
// records to standby processes over the same framed transport the
// workers speak, with the request/response roles flipped after the
// handshake: the standby connects and sends one msgTail, the hub answers
// with (term, seq, gen, full snapshot), and from then on the hub is the
// requester — it pushes msgFeed records and msgPing heartbeats, the
// standby acks each. The heartbeats double as the primary's lease: a
// standby that has not heard one within its TTL concludes the primary is
// gone and returns from Run with ErrLeaseExpired, at which point its
// owner promotes: its own store, current through the last fed record,
// becomes the primary's at term+1. Nothing fences the deposed primary.
//
// The hub and standby exchange state, not behavior: what "load a
// snapshot" and "apply a record" mean is the owner's business (incgraphd
// wires them to its Durable), so both sides are callback-driven and this
// package stays import-cycle-free.

// ErrLeaseExpired reports a standby that outlived its primary's lease:
// no heartbeat or record arrived within the TTL.
var ErrLeaseExpired = errors.New("cluster: primary lease expired")

// HubOptions configures a primary-side feed hub.
type HubOptions struct {
	// Term is the primary's term, echoed to standbys.
	Term uint64
	// Snapshot captures the primary's current durable state: the last
	// sequence number handed to Feed, the generation, and snapshot bytes.
	// It is called with no hub lock held; take the lock your commits — apply
	// and Feed together — run under, so the triple is cut between two.
	Snapshot func() (seq, gen uint64, snap []byte, err error)
	// Heartbeat is the ping interval (default 500ms). The standby's TTL
	// should be a small multiple of it.
	Heartbeat time.Duration
}

// Hub fans committed records out to attached standbys. Call Feed from a
// serialized commit path (the commit callback of Coordinator.Apply is
// one). Its mutex is a leaf: nothing is called with it held.
type Hub struct {
	opts HubOptions

	mu    sync.Mutex
	conns map[*hubConn]struct{}
}

// feedQueueCap bounds how many unacked pushes a standby may fall behind
// before the hub drops it (it reconnects and re-handshakes from a fresh
// snapshot). The cap is what keeps Feed non-blocking on the commit path.
const feedQueueCap = 128

// pushTimeout bounds one push round trip (write + standby ack) on the
// sender goroutine, scaled by frame size like every link deadline.
const pushTimeout = 10 * time.Second

type hubConn struct {
	conn net.Conn
	// queue carries encoded push frames (feeds from Feed, pings from the
	// heartbeat loop) to the sender goroutine, which performs one acked
	// round trip per frame. The channel preserves enqueue order, and the
	// sender starts only after the handshake response is on the wire — so
	// pushes are totally ordered per connection, strictly after the
	// handshake, with a single writer on the socket.
	queue chan []byte

	mu   sync.Mutex
	dead bool
	err  error
}

// enqueue hands one push frame to the sender. It never blocks: a full
// queue means the standby is feedQueueCap acks behind, and it is dropped
// rather than allowed to stall the caller (Feed runs on the commit path).
func (hc *hubConn) enqueue(req []byte) bool {
	hc.mu.Lock()
	if hc.dead {
		hc.mu.Unlock()
		return false
	}
	select {
	case hc.queue <- req:
		hc.mu.Unlock()
		return true
	default:
		hc.dead = true
		hc.err = fmt.Errorf("cluster: standby fell %d pushes behind", feedQueueCap)
		hc.mu.Unlock()
		hc.conn.Close() // interrupts the sender's in-flight round trip
		return false
	}
}

// fail marks the connection dead (keeping the first error) and closes it.
func (hc *hubConn) fail(err error) {
	hc.mu.Lock()
	if !hc.dead {
		hc.dead = true
		hc.err = err
	}
	hc.mu.Unlock()
	hc.conn.Close()
}

// failure returns the error that killed the connection.
func (hc *hubConn) failure() error {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.err
}

// sender drains the queue: one round trip per frame, acked by the standby
// before the next is written. Any failure — transport or a standby-
// reported apply error — kills the connection; the standby reconnects and
// re-handshakes from a fresh snapshot.
func (hc *hubConn) sender() {
	for req := range hc.queue {
		hc.conn.SetDeadline(time.Now().Add(pushTimeout + time.Duration(len(req)>>20)*time.Second))
		_, err := roundTrip(hc.conn, req)
		hc.conn.SetDeadline(time.Time{})
		if err != nil {
			hc.fail(err)
			return
		}
	}
}

// NewHub returns a hub ready to accept standby connections.
func NewHub(opts HubOptions) *Hub {
	return &Hub{opts: opts, conns: make(map[*hubConn]struct{})}
}

func (h *Hub) heartbeat() time.Duration {
	if h.opts.Heartbeat > 0 {
		return h.opts.Heartbeat
	}
	return 500 * time.Millisecond
}

// Standbys returns the number of attached standby connections.
func (h *Hub) Standbys() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// ServeConn answers one standby connection: the msgTail handshake (register,
// then snapshot), then heartbeats until the connection dies or the hub's
// owner closes it. Feeds ride in from Feed on the caller's commit path.
func (h *Hub) ServeConn(conn net.Conn) error {
	// Handshake: one ordinary request/response, small frame cap until the
	// peer proves it speaks the protocol.
	payload, err := readFrame(conn, preHelloMaxFrame)
	if err != nil {
		return err
	}
	if len(payload) == 0 || msgType(payload[0]) != msgTail {
		return fmt.Errorf("%w: expected tail request", ErrProtocol)
	}
	version, err := decodeTailReq(&reader{buf: payload, off: 1})
	if err != nil {
		return err
	}
	if version != protocolVersion {
		err := fmt.Errorf("protocol version %d not supported (have %d)", version, protocolVersion)
		writeFrame(conn, append([]byte{byte(msgErr)}, err.Error()...))
		return err
	}
	// Register, then snapshot, h.mu released in between: a commit before the
	// registration is in the snapshot, one after the snapshot is queued, one
	// between the two is covered BOTH ways, which the standby's seq skip makes
	// harmless. No burst can overrun feedQueueCap while the snapshot is cut:
	// it holds the lock every commit, and so every Feed, needs.
	hc := &hubConn{conn: conn, queue: make(chan []byte, feedQueueCap)}
	h.mu.Lock()
	h.conns[hc] = struct{}{}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.conns, hc)
		h.mu.Unlock()
		hc.fail(net.ErrClosed)
	}()
	seq, gen, snap, err := h.opts.Snapshot()
	if err != nil {
		writeFrame(conn, append([]byte{byte(msgErr)}, err.Error()...))
		return err
	}
	// Commits since the registration queue behind the sender, which starts
	// only after the handshake response is written — so the standby's
	// first frame is always the tail response, never an early feed, and
	// the socket has exactly one writer at any time.
	if err := writeFrame(conn, encodeTailResp(h.opts.Term, seq, gen, snap)); err != nil {
		return err
	}
	go hc.sender()
	// Role flip: this goroutine now only heartbeats; Feed enqueues records
	// from the commit path. The sender serializes both onto the wire.
	tick := time.NewTicker(h.heartbeat())
	defer tick.Stop()
	ping := encodePing(h.opts.Term)
	for range tick.C {
		if !hc.enqueue(ping) {
			return hc.failure()
		}
	}
	return nil
}

// Feed pushes one committed record to every attached standby. It must be
// called in commit order, under the lock Snapshot takes. Feed calls nothing
// with h.mu held and never blocks on a standby — it enqueues to
// each connection's sender, and a standby that is feedQueueCap acks
// behind (or fails an ack) is dropped: it will reconnect and re-handshake
// from a fresh snapshot.
func (h *Hub) Feed(seq, preGen, postGen uint64, b graph.Batch) {
	h.mu.Lock()
	targets := make([]*hubConn, 0, len(h.conns))
	for hc := range h.conns {
		targets = append(targets, hc)
	}
	h.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	payload, err := store.EncodeRecord(seq, preGen, b)
	if err != nil {
		return
	}
	req := encodeFeed(postGen, payload)
	for _, hc := range targets {
		hc.enqueue(req)
	}
}

// Close drops every attached standby connection.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for hc := range h.conns {
		hc.conn.Close()
	}
}

// StandbyOptions configures a standby tail.
type StandbyOptions struct {
	// Load installs the handshake snapshot: term is the primary's term,
	// seq/gen the replication position the snapshot embodies.
	Load func(term, seq, gen uint64, snapshot []byte) error
	// Apply applies one fed record (already past Load's position). It
	// runs in feed order; an error tears the tail down (the standby's
	// state can no longer track the primary).
	Apply func(seq, postGen uint64, b graph.Batch) error
	// TTL is the primary lease: Run returns ErrLeaseExpired when neither
	// a record nor a heartbeat arrives within it (default 2s; use a small
	// multiple of the hub's Heartbeat).
	TTL time.Duration
}

// Standby tails a hub. Run blocks until the lease expires or the
// connection fails; LastSeq/Gen/Term expose the tracked position for the
// owner's promotion decision.
type Standby struct {
	opts StandbyOptions

	mu   sync.Mutex
	term uint64
	// base is the handshake snapshot's position; fed records at or below
	// it are duplicates of snapshotted state. seq is the highest position
	// applied (the hub feeds in commit order, but the guard stays
	// monotonic rather than strict for robustness).
	base uint64
	seq  uint64
	gen  uint64
}

// NewStandby returns a standby with the given callbacks.
func NewStandby(opts StandbyOptions) *Standby {
	return &Standby{opts: opts}
}

func (s *Standby) ttl() time.Duration {
	if s.opts.TTL > 0 {
		return s.opts.TTL
	}
	return 2 * time.Second
}

// Term returns the primary term the standby last saw.
func (s *Standby) Term() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.term }

// LastSeq returns the last applied replication sequence.
func (s *Standby) LastSeq() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.seq }

// Gen returns the generation the standby has proven current through.
func (s *Standby) Gen() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.gen }

// Run performs the tail handshake on conn and then serves the hub's
// pushes until the connection dies or the lease expires. It returns
// ErrLeaseExpired on a silent primary, io.EOF-wrapped transport errors on
// a dead one — either way the standby's state is current through LastSeq
// and the owner may promote.
func (s *Standby) Run(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(rpcTimeout))
	if err := writeFrame(conn, encodeTailReq()); err != nil {
		return err
	}
	payload, err := readFrame(conn, maxFrame)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty tail response", ErrProtocol)
	}
	if msgType(payload[0]) == msgErr {
		return remoteError(payload[1:])
	}
	if msgType(payload[0]) != msgOK {
		return fmt.Errorf("%w: unexpected tail response type %d", ErrProtocol, payload[0])
	}
	term, seq, gen, snap, err := decodeTailResp(&reader{buf: payload, off: 1})
	if err != nil {
		return err
	}
	if err := s.opts.Load(term, seq, gen, snap); err != nil {
		return err
	}
	s.mu.Lock()
	s.term, s.base, s.seq, s.gen = term, seq, seq, gen
	s.mu.Unlock()
	// Role flip: the hub pushes, we ack. The read deadline is the lease.
	for {
		conn.SetDeadline(time.Now().Add(s.ttl()))
		payload, err := readFrame(conn, maxFrame)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return ErrLeaseExpired
			}
			if err == io.EOF {
				return fmt.Errorf("cluster: tail: %w", io.ErrUnexpectedEOF)
			}
			return err
		}
		if len(payload) == 0 {
			return fmt.Errorf("%w: empty push", ErrProtocol)
		}
		switch msgType(payload[0]) {
		case msgPing:
			if _, err := decodePing(&reader{buf: payload, off: 1}); err != nil {
				return err
			}
			if err := writeFrame(conn, []byte{byte(msgOK)}); err != nil {
				return err
			}
		case msgFeed:
			postGen, recPayload, err := decodeFeed(&reader{buf: payload, off: 1})
			if err != nil {
				return err
			}
			rec, err := store.DecodeRecord(recPayload)
			if err != nil {
				return err
			}
			// Records at or below the handshake position are already in
			// the loaded snapshot (the hub's cut may cover a record both
			// ways); ack and move on.
			s.mu.Lock()
			base := s.base
			s.mu.Unlock()
			if rec.Seq <= base {
				if err := writeFrame(conn, []byte{byte(msgOK)}); err != nil {
					return err
				}
				continue
			}
			if err := s.opts.Apply(rec.Seq, postGen, rec.Batch); err != nil {
				// Ack the failure so the hub drops us cleanly, then stop:
				// our state no longer tracks the primary.
				writeFrame(conn, append([]byte{byte(msgErr)}, err.Error()...))
				return err
			}
			s.mu.Lock()
			if rec.Seq > s.seq {
				s.seq, s.gen = rec.Seq, postGen
			}
			s.mu.Unlock()
			// The lease bounds the wait for the hub, not the apply: the
			// ack gets a deadline of its own.
			conn.SetDeadline(time.Now().Add(s.ttl()))
			if err := writeFrame(conn, []byte{byte(msgOK)}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected push type %d", ErrProtocol, payload[0])
		}
	}
}
