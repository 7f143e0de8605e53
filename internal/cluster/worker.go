package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// Worker owns a subset of the cluster graph's shards: authoritative node
// records and adjacency for every shard placed on it, in
// a shard-container graph whose global indexes are never built (see
// graph.ApplyShardEffects). It serves the coordinator's RPCs — hello,
// place, apply (phase 1), export — over any net.Conn; requests from
// concurrent connections serialize on the worker's mutex, so state
// transitions are atomic per request. A hello resets it: the worker keeps
// nothing from one coordinator to the next.
type Worker struct {
	mu    sync.Mutex
	g     *graph.Graph
	owned map[int]bool

	// applyDeltas is phase-1 scratch, reused across requests (safe: every
	// request runs under mu).
	applyDeltas []int
}

// NewWorker returns an empty worker; the coordinator's hello sizes it.
func NewWorker() *Worker {
	return &Worker{owned: make(map[int]bool)}
}

// Serve accepts connections until the listener closes, serving each on its
// own goroutine. It returns the listener's error (net.ErrClosed on a clean
// shutdown).
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			w.ServeConn(conn)
		}()
	}
}

// applySession is the per-connection state of the apply fast path: the
// coordinator-ID → local-ID label translation built up by the label-delta
// chain at the head of every apply request, and the scratch buffers that
// make a warm connection decode requests, apply effects, and frame
// responses without allocating.
type applySession struct {
	// coordLabels[i] is the local LabelID for the coordinator's label i.
	// Grows monotonically over the session; reset by hello.
	coordLabels []graph.LabelID

	effs   []graph.ShardEffects
	nodes  []graph.ShardNewNode
	ops    []graph.ShardOp
	deltas []int

	readBuf []byte // request frame payloads
	resp    []byte // response bodies built by the apply handler
	frame   []byte // header-prefixed single-write response frames
}

// smallResp bounds responses sent via the single-write prefixed-frame
// path; anything larger (export parcels) goes out as header+payload so
// the connection's scratch buffer never balloons to parcel size.
const smallResp = 64 << 10

// zeroFrameHeader reserves header space at the front of a prefixed frame.
var zeroFrameHeader [frameHeaderSize]byte

// ServeConn answers framed requests on conn until EOF or a framing error.
// Request-level failures (unknown shard, diverged state) are answered with
// msgErr and the connection stays up; framing errors tear it down — the
// coordinator treats that as a failure and stops. Until the
// connection's first request has been handled successfully (a hello, on a
// real coordinator), frames are capped small so a stray non-protocol
// connection cannot provoke a near-gigabyte allocation.
func (w *Worker) ServeConn(conn io.ReadWriter) error {
	limit := uint32(preHelloMaxFrame)
	sess := &applySession{}
	for {
		payload, err := readFrameInto(conn, sess.readBuf, limit)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if cap(payload) > cap(sess.readBuf) {
			sess.readBuf = payload
		}
		if len(payload) == 0 {
			return fmt.Errorf("%w: empty message", ErrProtocol)
		}
		t := msgType(payload[0])
		resp := w.handle(t, &reader{buf: payload, off: 1}, sess)
		if len(resp) <= smallResp {
			frame := append(sess.frame[:0], zeroFrameHeader[:]...)
			frame = append(frame, resp...)
			sess.frame = frame[:0]
			if err := writeFramePrefixed(conn, frame); err != nil {
				return err
			}
		} else if err := writeFrame(conn, resp); err != nil {
			return err
		}
		// Only a successful hello — the coordinator handshake — earns the
		// full frame budget; other pre-hello requests must not unlock
		// gigabyte allocations for strangers.
		if t == msgHello && msgType(resp[0]) == msgOK {
			limit = maxFrame
		}
	}
}

// handle dispatches one request and builds the response frame payload.
func (w *Worker) handle(t msgType, r *reader, sess *applySession) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	resp, err := w.dispatch(t, r, sess)
	if err != nil {
		return append([]byte{byte(msgErr)}, err.Error()...)
	}
	return resp
}

// applyBatchEffects runs phase 1 for one batch — ownership check across
// all its shards first, then ApplyShardEffects per shard — and appends the
// batch's verdict (per-shard deltas, or an error) to the response. Caller
// holds w.mu.
func (w *Worker) applyBatchEffects(resp []byte, effs []graph.ShardEffects) []byte {
	for _, e := range effs {
		if e.Shard < 0 || e.Shard >= w.g.NumShards() || !w.owned[e.Shard] {
			return appendBatchError(resp, fmt.Errorf("shard %d not placed here", e.Shard))
		}
	}
	w.applyDeltas = w.applyDeltas[:0]
	for _, e := range effs {
		d, err := w.g.ApplyShardEffects(e)
		if err != nil {
			// The shard may be partially applied: disown it so it is never
			// exported or applied to as a replica.
			delete(w.owned, e.Shard)
			return appendBatchError(resp, err)
		}
		w.applyDeltas = append(w.applyDeltas, d)
	}
	return appendBatchDeltas(resp, effs, w.applyDeltas)
}

func (w *Worker) dispatch(t msgType, r *reader, sess *applySession) ([]byte, error) {
	switch t {
	case msgHello:
		version, shards, err := decodeHello(r)
		if err != nil {
			return nil, err
		}
		// The session's label chain restarts with the handshake: a
		// coordinator that hellos resends its label table from zero.
		sess.coordLabels = sess.coordLabels[:0]
		if version != protocolVersion {
			return nil, fmt.Errorf("protocol version %d not supported (have %d)", version, protocolVersion)
		}
		if shards < 1 || shards > graph.MaxShards || shards&(shards-1) != 0 {
			return nil, fmt.Errorf("invalid shard count %d", shards)
		}
		// A new coordinator places every shard it assigns here: whatever
		// the worker held before is dropped.
		w.g = graph.NewSharded(int(shards))
		w.owned = make(map[int]bool)
		return []byte{byte(msgOK)}, nil

	case msgPlace:
		if w.g == nil {
			return nil, fmt.Errorf("place before hello")
		}
		s, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if s >= uint64(w.g.NumShards()) {
			return nil, fmt.Errorf("shard %d out of range [0,%d)", s, w.g.NumShards())
		}
		st, err := store.DecodeShardParcel(r.rest(), int(s))
		if err != nil {
			return nil, err
		}
		w.g.ResetShard(int(s))
		if err := w.g.LoadShard(int(s), st); err != nil {
			// A half-loaded shard must not pass for a replica.
			w.g.ResetShard(int(s))
			delete(w.owned, int(s))
			return nil, err
		}
		w.owned[int(s)] = true
		return []byte{byte(msgOK)}, nil

	case msgApply:
		if w.g == nil {
			return nil, fmt.Errorf("apply before hello")
		}
		var err error
		sess.coordLabels, err = decodeApplyLabels(r, sess.coordLabels)
		if err != nil {
			return nil, err
		}
		effs, err := decodeApplyBatch(r, sess)
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		resp := w.applyBatchEffects(append(sess.resp[:0], byte(msgOK)), effs)
		sess.resp = resp[:0]
		return resp, nil

	case msgExport:
		if w.g == nil {
			return nil, fmt.Errorf("export before hello")
		}
		s, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		if s >= uint64(w.g.NumShards()) || !w.owned[int(s)] {
			return nil, fmt.Errorf("shard %d not placed here", s)
		}
		parcel, err := store.EncodeShardParcel(w.g, int(s))
		if err != nil {
			return nil, err
		}
		return append([]byte{byte(msgOK)}, parcel...), nil

	default:
		return nil, fmt.Errorf("unknown message type %d", t)
	}
}

// roundTrip sends one request frame and decodes the response envelope,
// returning the msgOK body reader or the worker's remote error. The
// response cap stays at maxFrame: the peer is a worker this coordinator
// handshook, and export responses carry whole parcels.
func roundTrip(conn io.ReadWriter, req []byte) (*reader, error) {
	if err := writeFrame(conn, req); err != nil {
		return nil, err
	}
	payload, err := readFrame(conn, maxFrame)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: connection closed mid-request", ErrFrame)
		}
		return nil, err
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

// appendUvarint is a tiny helper for request builders.
func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }
