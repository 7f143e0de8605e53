package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// Wire messages. Every frame payload is one message: a type byte followed
// by a type-specific body (little-endian fixed ints, varints for counts
// and IDs), read by internal/store's Reader as the WAL and snapshot are. The
// protocol is strict request/response: the coordinator sends one request
// per connection at a time and the worker answers with msgOK (body per
// request type) or msgErr (UTF-8 error text).
//
// Labels travel as an incrementally shipped session table: LabelIDs are
// process-local but dense and append-only (graph.InternedLabels), so each
// apply request carries only the label strings interned since the last
// request on the session, and node labels in effects are uvarint
// references into the coordinator's table. The worker keeps the
// coordinator-ID → local-ID translation per connection, reset at hello.
// This removes the per-node label strings (and the worker-side intern
// locks) from the hot apply path.

// protocolVersion guards the wire format; hello and the tail request
// reject mismatches. Version 2 added coordinator terms (fencing), per-shard
// WAL replication and the standby tail stream. Version 3 made apply a group
// request (several shard-disjoint batches per frame, each acked
// independently) with session-interned label references instead of
// per-node strings. Version 4 removed worker log shipping: the replicate,
// repl-state and scrub requests, place's sequence and generation stamps,
// and the two replication counters of a worker's stat. Version 5 made apply
// carry one batch again — the coordinator commits one at a time — keeping
// the session label references. Version 6 removed the stat request.
// Version 7 made the coordinator fail-stop: the hello lost its term and
// its owned-shard reply and resets the worker, and the drop request went.
const protocolVersion = 7

type msgType byte

const (
	// msgHello opens a session: u32 version, u32 shard count P. The worker
	// drops whatever it held and starts an empty container graph at P.
	msgHello msgType = iota + 1
	// msgPlace installs an authoritative shard replica: uvarint shard,
	// then a store.EncodeShardParcel body. Replaces any existing copy.
	msgPlace
	// Type byte 3 was version 6's drop request; it stays unassigned.
	_
	// msgApply runs phase 1 for one planned batch: a label-table delta
	// (chained per session), then the batch's ShardEffects. The worker
	// answers with a status — edge deltas on success, an error text on
	// divergence — inside msgOK, so a diverged replica does not cost the
	// session its label chain.
	msgApply
	// msgExport returns the parcel of an owned shard: uvarint shard.
	msgExport
	// Type byte 6 was version 5's stat request; it stays unassigned.
	_
	// msgOK acknowledges a request; body depends on the request type.
	msgOK
	// msgErr reports a request-level failure; body is the error text. The
	// connection remains usable.
	msgErr
	// Type bytes 9 and 10 were version 3's replicate and repl-state
	// requests; they stay unassigned so a version-3 peer's tail request
	// still reaches the version check.
	_
	_
	// msgTail opens a standby feed on a coordinator hub: the response
	// carries term, sequence, generation and a full snapshot, after which
	// the connection role-flips — the hub pushes msgFeed/msgPing requests
	// and the standby acks each.
	msgTail
	// msgFeed pushes one committed record (post-commit generation + record
	// payload) down a tail stream.
	msgFeed
	// msgPing is the hub's lease heartbeat on a tail stream: u64 term.
	msgPing
)

// ErrProtocol reports a semantically malformed message: unknown type,
// truncated body, value out of range.
var ErrProtocol = errors.New("cluster: protocol error")

// remoteError wraps an msgErr body so callers can distinguish "the worker
// said no" (state divergence, bad request) from transport failure.
type remoteError string

func (e remoteError) Error() string { return "cluster: remote: " + string(e) }

// IsRemote reports whether err is a worker-reported error rather than a
// transport or framing failure.
func IsRemote(err error) bool {
	var re remoteError
	return errors.As(err, &re)
}

// ErrFrame reports a malformed frame: torn, oversized, or failing its CRC.
// Unlike WAL corruption (which truncates replay), a bad frame is fatal to
// the connection — there is no resynchronization point inside a TCP
// stream.
var ErrFrame = errors.New("cluster: bad frame")

// ---- framing -------------------------------------------------------------

// appendMsg starts a message of type t in buf: room for the frame header
// send stamps, then the type byte.
func appendMsg(buf []byte, t msgType) []byte {
	return append(append(buf, make([]byte, store.FrameHeaderSize)...), byte(t))
}

// send stamps the header of frame, a message begun by appendMsg, and
// writes it in one Write.
func send(w io.Writer, frame []byte) error {
	if err := store.SealFrame(frame, ErrFrame); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// readReply reads a response frame, into buf when it fits (see
// store.ReadFrame), and opens its envelope: it returns a Reader over a
// msgOK's body, or the peer's msgErr as a remoteError. The payload is
// returned too, for the caller to keep as its next buf. A request is
// always answered, so a hang-up is ErrFrame.
func readReply(r io.Reader, buf []byte) (*store.Reader, []byte, error) {
	payload, err := store.ReadFrame(r, buf, store.MaxFrame, ErrFrame)
	if err == io.EOF {
		err = fmt.Errorf("%w: connection closed mid-request", ErrFrame)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(payload) == 0 {
		return nil, payload, fmt.Errorf("%w: empty response", ErrProtocol)
	}
	switch msgType(payload[0]) {
	case msgOK:
		return store.NewReader(payload[1:], ErrProtocol), payload, nil
	case msgErr:
		return nil, payload, remoteError(payload[1:])
	default:
		return nil, payload, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, payload[0])
	}
}

// ---- body codecs -------------------------------------------------------

// encodeHello builds the hello request body.
func encodeHello(shards int) []byte {
	buf := appendMsg(nil, msgHello)
	buf = binary.LittleEndian.AppendUint32(buf, protocolVersion)
	return binary.LittleEndian.AppendUint32(buf, uint32(shards))
}

// decodeHello parses a hello body (type byte already consumed). The body
// past the version field is version-specific, so an unsupported version
// returns with only version populated and no error — the caller rejects
// on version with a proper "not supported" message instead of a confusing
// short-read/trailing-bytes protocol error.
func decodeHello(r *store.Reader) (version, shards uint32, err error) {
	if version = r.Uint32(); version != protocolVersion {
		return version, 0, r.Err()
	}
	shards = r.Uint32()
	return version, shards, r.Done()
}

// ---- apply codecs (protocol v5) ----------------------------------------
//
// An apply request is a label-table delta for the session followed by one
// batch's effects. The coordinator encodes them straight off the
// validated graph.Plan into the link's reused buffer with the frame header
// reserved up front, so the hot path allocates nothing and the frame
// leaves in a single write.
//
//	request:  byte msgApply
//	          uvarint labelBase (labels already shipped on this session)
//	          uvarint nLabels, then per label: uvarint len + bytes
//	          uvarint nShards, per shard:
//	            uvarint shard
//	            uvarint nNew, per node: varint id, uvarint labelRef
//	            uvarint nOps, per op: byte op, varint from, varint to
//	response: byte msgOK
//	          byte status (0 ok, 1 failed)
//	          ok:     uvarint nShards, per shard: uvarint shard, varint delta
//	          failed: uvarint len + error text

// applyStatus bytes in an apply response.
const (
	applyOK     byte = 0
	applyFailed byte = 1
)

// appendApplyHeader starts an apply request in buf: the message header
// and the label-table delta [base, cur) of the process intern table.
func appendApplyHeader(buf []byte, base, cur int) []byte {
	buf = appendMsg(buf, msgApply)
	buf = binary.AppendUvarint(buf, uint64(base))
	buf = binary.AppendUvarint(buf, uint64(cur-base))
	for id := base; id < cur; id++ {
		label := graph.LabelOf(graph.LabelID(id))
		buf = binary.AppendUvarint(buf, uint64(len(label)))
		buf = append(buf, label...)
	}
	return buf
}

// appendApplyBatch appends one batch's effects for the given shards,
// iterating the plan directly — no intermediate ShardEffects slices.
func appendApplyBatch(buf []byte, plan *graph.Plan, shards []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(shards)))
	for _, si := range shards {
		buf = binary.AppendUvarint(buf, uint64(si))
		buf = binary.AppendUvarint(buf, uint64(plan.NumNewNodes(si)))
		plan.NewNodes(si, func(id graph.NodeID, lid graph.LabelID) {
			buf = binary.AppendVarint(buf, int64(id))
			buf = binary.AppendUvarint(buf, uint64(lid))
		})
		buf = binary.AppendUvarint(buf, uint64(plan.NumOps(si)))
		plan.Ops(si, func(op graph.Op, from, to graph.NodeID) {
			if op == graph.Insert {
				buf = append(buf, 0)
			} else {
				buf = append(buf, 1)
			}
			buf = binary.AppendVarint(buf, int64(from))
			buf = binary.AppendVarint(buf, int64(to))
		})
	}
	return buf
}

// decodeApplyLabels consumes the label-table delta at the head of an
// apply body, extending the session's coordinator-ID → local-ID
// translation. The base must chain exactly onto what the session has
// already translated; a mismatch means the peers disagree about session
// state and the request is rejected before any effect applies.
func decodeApplyLabels(r *store.Reader, coordLabels []graph.LabelID) ([]graph.LabelID, error) {
	base, n := r.Uvarint(), r.Count(1)
	if err := r.Err(); err != nil {
		return coordLabels, err
	}
	if base != uint64(len(coordLabels)) {
		return coordLabels, fmt.Errorf("%w: label chain base %d, session has %d", ErrProtocol, base, len(coordLabels))
	}
	for i := 0; i < n; i++ {
		label := r.Text()
		if err := r.Err(); err != nil {
			return coordLabels, err
		}
		coordLabels = append(coordLabels, graph.InternLabel(label))
	}
	return coordLabels, nil
}

// decodeApplyBatch parses the batch of an apply request into the
// session's scratch slices (reused across requests), translating label
// references through coordLabels. The returned effects alias the scratch;
// they are valid until the next call.
func decodeApplyBatch(r *store.Reader, sess *applySession) ([]graph.ShardEffects, error) {
	nShards := r.Uvarint()
	if nShards > graph.MaxShards {
		return nil, fmt.Errorf("%w: apply names %d shards", ErrProtocol, nShards)
	}
	sess.effs = sess.effs[:0]
	sess.nodes = sess.nodes[:0]
	sess.ops = sess.ops[:0]
	for i := uint64(0); i < nShards; i++ {
		eff := graph.ShardEffects{Shard: int(r.Uvarint())}
		// A new node is at least two bytes (id, label reference), an op
		// three (op byte, from, to).
		nodeLo, nNew := len(sess.nodes), r.Count(2)
		for j := 0; j < nNew; j++ {
			id, ref := r.Varint(), r.Uvarint()
			if ref >= uint64(len(sess.coordLabels)) {
				return nil, fmt.Errorf("%w: label ref %d past session table (%d)", ErrProtocol, ref, len(sess.coordLabels))
			}
			sess.nodes = append(sess.nodes, graph.ShardNewNode{ID: graph.NodeID(id), Label: sess.coordLabels[ref]})
		}
		eff.NewNodes = sess.nodes[nodeLo:]
		opLo, nOps := len(sess.ops), r.Count(3)
		for j := 0; j < nOps; j++ {
			opb, from, to := r.Byte(), r.Varint(), r.Varint()
			op := graph.Insert
			if opb == 1 {
				op = graph.Delete
			} else if opb != 0 {
				return nil, fmt.Errorf("%w: unknown op byte %d", ErrProtocol, opb)
			}
			sess.ops = append(sess.ops, graph.ShardOp{Op: op, From: graph.NodeID(from), To: graph.NodeID(to)})
		}
		eff.Ops = sess.ops[opLo:]
		sess.effs = append(sess.effs, eff)
	}
	return sess.effs, r.Err()
}

// shardDelta is one shard's phase-1 edge-count report.
type shardDelta struct {
	shard int
	delta int
}

// appendBatchDeltas appends the batch's ok status and per-shard deltas to
// an apply response body.
func appendBatchDeltas(buf []byte, effs []graph.ShardEffects, deltas []int) []byte {
	buf = append(buf, applyOK)
	buf = binary.AppendUvarint(buf, uint64(len(effs)))
	for i, e := range effs {
		buf = binary.AppendUvarint(buf, uint64(e.Shard))
		buf = binary.AppendVarint(buf, int64(deltas[i]))
	}
	return buf
}

// appendBatchError appends the batch's failure status and error text.
func appendBatchError(buf []byte, err error) []byte {
	buf = append(buf, applyFailed)
	text := err.Error()
	buf = binary.AppendUvarint(buf, uint64(len(text)))
	return append(buf, text...)
}

// decodeBatchResult parses an apply response body into out (reused
// capacity). A failed batch returns a remoteError.
func decodeBatchResult(r *store.Reader, out []shardDelta) ([]shardDelta, error) {
	switch status := r.Byte(); status {
	case applyFailed:
		text := r.Text()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, remoteError(text)
	case applyOK:
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: unknown batch status %d", ErrProtocol, status)
	}
	n := r.Uvarint()
	if n > graph.MaxShards {
		return nil, fmt.Errorf("%w: %d delta entries", ErrProtocol, n)
	}
	out = out[:0]
	for i := uint64(0); i < n; i++ {
		s, d := r.Uvarint(), r.Varint()
		out = append(out, shardDelta{shard: int(s), delta: int(d)})
	}
	return out, r.Err()
}

// ---- standby tail codecs -----------------------------------------------

// encodeTailReq opens a standby feed.
func encodeTailReq() []byte {
	return binary.LittleEndian.AppendUint32(appendMsg(nil, msgTail), protocolVersion)
}

func decodeTailReq(r *store.Reader) (version uint32, err error) {
	version = r.Uint32()
	return version, r.Done()
}

// encodeTailResp answers a tail request: the hub's term, last committed
// sequence and generation, and a full snapshot of the primary's graph.
func encodeTailResp(term, seq, gen uint64, snapshot []byte) []byte {
	buf := appendMsg(make([]byte, 0, store.FrameHeaderSize+25+len(snapshot)), msgOK)
	buf = binary.LittleEndian.AppendUint64(buf, term)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	return append(buf, snapshot...)
}

func decodeTailResp(r *store.Reader) (term, seq, gen uint64, snapshot []byte, err error) {
	term, seq, gen = r.Uint64(), r.Uint64(), r.Uint64()
	return term, seq, gen, r.Rest(), r.Err()
}

// encodeFeed pushes one committed record down a tail stream: post-commit
// generation plus the record payload.
func encodeFeed(postGen uint64, record []byte) []byte {
	buf := appendMsg(make([]byte, 0, store.FrameHeaderSize+9+len(record)), msgFeed)
	buf = binary.LittleEndian.AppendUint64(buf, postGen)
	return append(buf, record...)
}

func decodeFeed(r *store.Reader) (postGen uint64, record []byte, err error) {
	postGen = r.Uint64()
	return postGen, r.Rest(), r.Err()
}

// encodePing is the hub's lease heartbeat.
func encodePing(term uint64) []byte {
	return binary.LittleEndian.AppendUint64(appendMsg(nil, msgPing), term)
}

func decodePing(r *store.Reader) (term uint64, err error) {
	term = r.Uint64()
	return term, r.Done()
}
