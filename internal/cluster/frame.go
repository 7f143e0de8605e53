// Package cluster runs the sharded graph substrate across processes: shard
// worker processes each own a subset of the graph's shards behind a
// length+CRC-framed RPC protocol, and a coordinator drives ApplyBatch's
// two-phase protocol over the wire — phase 1 fans each shard's slice of a
// validated batch plan out to the worker owning it, in parallel; phase 2
// merges the per-shard deltas deterministically in shard order on the
// coordinator — so a distributed application produces state byte-identical
// to the single-process one. Shard placement ships the per-shard snapshot
// segments of internal/store (EncodeShardParcel / DecodeShardParcel
// feeding graph.LoadShard); placement is round-robin, happens once when
// the coordinator attaches, and is fixed for its lifetime. The
// coordinator commits one batch at a time: its mutex is held from plan to
// local commit.
//
// # Division of state
//
// The coordinator keeps the authoritative full graph: it is where batches
// are validated and planned, where the serving engines (KWS/RPQ/SCC/ISO)
// and the durability layer live, and where placement segments come from.
// Workers hold authoritative *shard replicas* — node records and
// adjacency for their placed shards, nothing graph-global (no inverted
// label index, no edge count; see graph.ApplyShardEffects) — and nothing
// from one coordinator to the next: a hello resets the worker. A batch
// commits only after every involved worker acknowledged phase 1.
//
// The coordinator is fail-stop. A worker failure mid-phase-1, a diverged
// cross-check or a failed local commit fails the batch atomically — the
// coordinator never commits it, and the authoritative graph is untouched
// — and then stops: every later Apply returns that first failure. Nothing
// redials a worker, re-places a shard or fences a session; a caller that
// wants to go on attaches a new coordinator over fresh workers.
//
// No read, recovery or promotion is served from a worker's replicas. What
// a worker's copy is read by, the whole list:
//   - phase 1's per-shard cross-check: the worker applies its slice of the
//     plan and reports each shard's edge delta, which must match the plan's;
//   - VerifyShard/VerifyAll: the worker exports a shard's parcel and the
//     coordinator compares it byte for byte with its own (the tests' and
//     perf's parity oracle).
//
// # High availability
//
// Standby failover (lease.go) is the one replication path: a Hub beside
// the primary feeds every committed record to Standby tails, each of which
// keeps its own crash-safe store, and whose heartbeats double as the
// primary's lease; promotion makes the standby's store the primary. The
// hub speaks the same framing as the workers.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// ErrFrame reports a malformed RPC frame: torn, oversized, or failing its
// CRC. Unlike WAL corruption (which truncates replay), a bad frame is
// fatal to the connection — there is no resynchronization point inside a
// TCP stream.
var ErrFrame = errors.New("cluster: bad frame")

// maxFrame bounds one message. Parcels of very large shards are the
// biggest frames; 1 GiB matches the WAL's record bound.
const maxFrame = 1 << 30

// preHelloMaxFrame bounds frames on a worker connection before its first
// successfully handled request. A hello is a few dozen bytes; the cap
// keeps a stray non-protocol connection (a misdirected health probe whose
// first bytes parse as a huge little-endian length) from provoking a
// near-gigabyte allocation before any validation has happened.
const preHelloMaxFrame = 1 << 12

// frameHeaderSize is uint32 length + uint32 CRC.
const frameHeaderSize = 8

// writeFrame sends one length+CRC-framed payload, mirroring the WAL's
// record framing (internal/store). Header and payload go out as separate
// writes — the stream has a single writer per direction, so no atomicity
// is needed, and skipping the concatenation avoids doubling peak memory
// when a multi-hundred-MB shard parcel ships during placement.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: payload of %d bytes exceeds %d", ErrFrame, len(payload), maxFrame)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeFramePrefixed sends a frame whose payload was built with
// frameHeaderSize bytes reserved at the front: it stamps the length+CRC
// header in place and issues a single Write. The hot apply path uses it —
// one write is one chunk through the in-process BufferedPipe and avoids
// the small-packet header write on TCP — while the bytes on the wire stay
// identical to writeFrame's, so a reader cannot tell them apart.
func writeFramePrefixed(w io.Writer, frame []byte) error {
	payload := frame[frameHeaderSize:]
	if len(payload) > maxFrame {
		return fmt.Errorf("%w: payload of %d bytes exceeds %d", ErrFrame, len(payload), maxFrame)
	}
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one framed payload of at most max bytes. Torn headers
// or payloads, lengths past the cap, and CRC mismatches all return
// ErrFrame-wrapped errors; a clean EOF before any header byte returns
// io.EOF so accept loops can distinguish hangup from corruption.
func readFrame(r io.Reader, max uint32) ([]byte, error) {
	return readFrameInto(r, nil, max)
}

// readFrameInto is readFrame decoding into a reusable buffer: the payload
// lands in buf when its capacity suffices, so a connection that owns its
// scratch reads every request allocation-free once warm. The returned
// slice aliases buf (or a fresh allocation when buf was too small);
// callers own the growth. A fresh allocation grows with the bytes that
// arrive (readPayload), so a length prefix alone buys nothing.
func readFrameInto(r io.Reader, buf []byte, max uint32) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header: %w", ErrFrame, err)
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if length > max {
		return nil, fmt.Errorf("%w: implausible length %d (cap %d)", ErrFrame, length, max)
	}
	var payload []byte
	var err error
	if uint32(cap(buf)) >= length {
		payload = buf[:length]
		_, err = io.ReadFull(r, payload)
	} else {
		payload, err = readPayload(r, int(length))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: torn payload: %w", ErrFrame, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrFrame)
	}
	return payload, nil
}

// frameChunk is the first allocation readPayload makes for a frame.
const frameChunk = 64 << 10

// readPayload reads exactly n bytes into a buffer that starts at
// frameChunk and doubles as the bytes arrive, so a torn stream, or a
// stranger whose first bytes parse as a near-cap length, costs at most
// about twice what it actually sent — never the length it claimed.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, frameChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
