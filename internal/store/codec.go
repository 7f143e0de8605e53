package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
)

// The byte codec. Every binary format of the module is written and read
// through this file: the WAL's records, the snapshot's segments, the shard
// parcels, and the cluster's worker RPCs and standby feed.
//
// # Frame
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// both little-endian. A WAL record is one frame on disk; a cluster message
// is one frame on a connection. A writer builds the payload behind
// FrameHeaderSize reserved bytes and SealFrame stamps the header in place,
// so the frame leaves in one Write. ReadFrame reads one back.
//
// # Fields
//
// Inside a payload, counts, IDs and lengths are varints (encoding/binary's
// AppendUvarint and AppendVarint, always minimal) and stamps are
// little-endian fixed-width integers. A Reader reads them back and accepts
// only minimal varints, so every payload it accepts re-encodes to its own
// bytes.

// FrameHeaderSize is the length of a frame's header.
const FrameHeaderSize = 8

// MaxFrame bounds one frame's payload: a longer one is refused when sealed
// and treated as corrupt when read. The largest frames are a big shard's
// parcel and a standby's handshake snapshot. What a frame's length field
// may cost before its bytes have arrived is bounded by ReadFrame, not by
// this.
const MaxFrame = 1 << 30

// frameStep is the first buffer ReadFrame allocates for a payload its
// caller's buffer cannot hold.
const frameStep = 64 << 10

// SealFrame stamps the header of frame — FrameHeaderSize bytes reserved in
// front of the payload — with the payload's length and CRC. A payload past
// MaxFrame is refused with an error wrapping bad.
func SealFrame(frame []byte, bad error) error {
	payload := frame[FrameHeaderSize:]
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: payload of %d bytes exceeds %d", bad, len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return nil
}

// ReadFrame reads one frame of at most limit payload bytes from r and
// returns its payload. When buf's capacity holds the frame, the header and
// the payload are read into it and the payload aliases buf, so a caller
// that keeps its buffer reads without allocating once warm. Otherwise the
// payload gets a buffer that starts at frameStep and doubles as the bytes
// arrive, so a frame whose length claims far more than r holds costs about
// what r supplied, never what it claimed. A clean end of r before the
// frame's first byte returns io.EOF; a torn frame, a length past limit and
// a CRC mismatch return errors wrapping bad.
func ReadFrame(r io.Reader, buf []byte, limit uint32, bad error) ([]byte, error) {
	hdr := buf[:cap(buf)]
	if len(hdr) < FrameHeaderSize {
		hdr = make([]byte, FrameHeaderSize)
	}
	hdr = hdr[:FrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn header: %w", bad, err)
	}
	length := binary.LittleEndian.Uint32(hdr)
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if length > limit {
		return nil, fmt.Errorf("%w: implausible length %d (cap %d)", bad, length, limit)
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
		return nil, fmt.Errorf("%w: torn payload: %w", bad, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: CRC mismatch", bad)
	}
	return payload, nil
}

// readPayload reads exactly n bytes into a buffer that starts at frameStep
// and doubles as the bytes arrive: a torn stream, or a stranger whose
// first bytes parse as a near-cap length, costs at most about twice what
// it actually sent. A payload that fits one step — every ordinary one — is
// one exact allocation.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, frameStep))
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

// Reader reads a payload's fields in order. Each read checks what is left,
// so no input can make it index past the end. The first read that fails
// ends the payload: it and every later read return zero values, and Err
// reports it once, wrapped in the sentinel the Reader was opened with. A
// decoder reads its fields straight through and checks Err (or Done) at
// the points where a value must be valid to go on.
type Reader struct {
	buf []byte
	off int
	bad error
	why string // the first failure; empty while every read has succeeded
}

// NewReader returns a Reader over buf whose failures wrap bad.
func NewReader(buf []byte, bad error) *Reader { return &Reader{buf: buf, bad: bad} }

// fail records the first failure and drops the unread bytes, so every
// later read fails too.
func (r *Reader) fail(why string) {
	if r.why == "" {
		r.why = why
	}
	r.buf = r.buf[:r.off]
}

// Err returns the first failed read's error, or nil.
func (r *Reader) Err() error {
	if r.why == "" {
		return nil
	}
	return fmt.Errorf("%w: %s at byte %d", r.bad, r.why, r.off)
}

// Done returns Err, or an error for bytes left unread.
func (r *Reader) Done() error {
	if r.why == "" && r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", r.bad, len(r.buf)-r.off)
	}
	return r.Err()
}

// Uvarint reads a minimally encoded uvarint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if !minimal(r.buf[r.off:], n) {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a minimally encoded varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf[r.off:])
	if !minimal(r.buf[r.off:], n) {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// minimal reports whether the varint that binary.Uvarint or binary.Varint
// read from b in n bytes was read whole and is minimally encoded: a longer
// form ends in a zero byte.
func minimal(b []byte, n int) bool { return n == 1 || n > 1 && b[n-1] != 0 }

// Count reads a uvarint count of items that each take at least per bytes
// and refuses one the bytes left cannot hold, so a corrupt count never
// buys an allocation larger than the input.
func (r *Reader) Count(per int) int {
	n := r.Uvarint()
	if hi, lo := bits.Mul64(n, uint64(per)); hi != 0 || lo > uint64(len(r.buf)-r.off) {
		r.fail("implausible count")
		return 0
	}
	return int(n)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Bytes reads the next n bytes. The result aliases the Reader's buffer.
func (r *Reader) Bytes(n uint64) []byte {
	if n > uint64(len(r.buf)-r.off) {
		r.fail("truncated")
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off]
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Text reads a uvarint length and that many bytes, as a string of its own.
func (r *Reader) Text() string { return string(r.Bytes(r.Uvarint())) }

// Rest reads every byte left. The result aliases the Reader's buffer.
func (r *Reader) Rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}
