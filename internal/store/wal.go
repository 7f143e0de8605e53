package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"incgraph/internal/graph"
)

// Write-ahead log. The WAL extends a snapshot: every batch ΔG applied
// after the snapshot is appended as one framed record before the graph or
// any engine sees it, so a crash loses at most the batch whose append
// never completed. Recovery is snapshot-load + replay of the valid record
// prefix through the normal Apply path.
//
// # Format (version 1)
//
//	header: magic [8]byte "incgwal1", uint32 version, uint64 startGen
//	        (the graph generation of the snapshot this log extends)
//	record: uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//	payload: uint64 seq (1-based, contiguous)
//	         uint64 gen (graph generation when the batch was appended;
//	                     advisory — see Replay)
//	         uvarint update count, then per update:
//	           byte op (0 insert, 1 delete)
//	           varint from, varint to
//	           insert only: uvarint len + bytes from-label, same for to-label
//
// # Torn tails
//
// A crash mid-append leaves a torn tail. scanRecords has the rule for where
// a log ends — the valid prefix is the log — and OpenWAL truncates the file
// there so subsequent appends extend a clean tail. Corruption is never fatal
// to recovery; it only bounds how much of the suffix survives.
//
// # Fsync policy
//
// SyncAlways fsyncs after every append: a crashed process loses nothing it
// acknowledged. SyncNone leaves flushing to the OS: bounded data loss on
// power failure, much higher append throughput. Both policies produce
// valid logs; the choice only moves the durability point.

// walMagic identifies WAL files.
var walMagic = [8]byte{'i', 'n', 'c', 'g', 'w', 'a', 'l', '1'}

// WALVersion is the current WAL format revision.
const WALVersion = 1

// walHeaderSize is the fixed header length.
const walHeaderSize = 8 + 4 + 8

// maxWALRecord bounds a single record's payload; frames claiming more are
// treated as corruption. What a frame's length may cost before its bytes
// have arrived is bounded by readPayload, not by this.
const maxWALRecord = 1 << 30

// ErrBadWAL reports a WAL whose header cannot be parsed. Torn or corrupt
// record tails are NOT errors — they truncate the replay.
var ErrBadWAL = errors.New("store: bad WAL")

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (the default; acknowledged
	// batches survive OS and power failure).
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs explicitly; the OS flushes at its leisure.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// WAL is an open write-ahead log positioned for appends.
type WAL struct {
	f      File
	policy SyncPolicy
	seq    uint64 // last appended sequence number
	size   int64
	buf    []byte // reused payload/frame scratch
	// broken is set when a failed append could not be rolled back: the
	// file may hold torn bytes that replay would treat as the end of the
	// log, so acknowledging further appends would silently lose them.
	broken error
}

// ErrWALBroken reports a log wedged by an append failure whose partial
// write could not be truncated away; the caller must checkpoint (starting
// a fresh log) or restart.
var ErrWALBroken = errors.New("store: WAL broken by unrecoverable append failure")

// ReplayRecord is one decoded WAL record: a batch with its stamps.
type ReplayRecord struct {
	// Seq is the contiguous 1-based record index.
	Seq uint64
	// Gen is the graph generation recorded at append time. Advisory: how
	// far a batch advances the counter is an implementation detail of the
	// graph, so recovery checks monotonicity, not equality.
	Gen   uint64
	Batch graph.Batch
}

// CreateWAL creates a fresh log at path through fsys (nil means the real
// filesystem), truncating any existing file, stamped as extending a
// snapshot at generation startGen.
func CreateWAL(fsys FS, path string, startGen uint64, policy SyncPolicy) (*WAL, error) {
	f, err := fsOrOS(fsys).OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr []byte
	hdr = append(hdr, walMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, WALVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, startGen)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	// The header is fsynced under every policy: a manifest must never
	// commit a WAL whose header could vanish in a power loss (SyncNone
	// only relaxes durability of records, not of the log's existence).
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, policy: policy, size: int64(len(hdr))}, nil
}

// OpenWAL opens an existing log for appending through fsys (nil means the
// real filesystem): it replays the valid record prefix (returned for the
// caller to re-apply), truncates any torn or corrupt tail, and positions
// the log at its clean end.
func OpenWAL(fsys FS, path string, policy SyncPolicy) (*WAL, []ReplayRecord, error) {
	f, err := fsOrOS(fsys).OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records, end, _, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, policy: policy, size: end}
	if n := len(records); n > 0 {
		w.seq = records[n-1].Seq
	}
	return w, records, nil
}

// ReplayWAL decodes the valid record prefix of the log at path without
// modifying the file. It returns the records and the offset at which the
// valid prefix ends (the truncation point a subsequent OpenWAL would use).
func ReplayWAL(path string) ([]ReplayRecord, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	records, end, _, err := replay(f)
	return records, end, err
}

// replayBuffer is the read-ahead of a WAL scan: one read syscall brings in
// many small records rather than two per record.
const replayBuffer = 64 << 10

// replay reads records from the header on, contiguous in sequence and
// non-decreasing in generation. It returns the decoded records, the clean end
// offset, and the log's start generation. It reads ahead of the clean end,
// which is the sum of the accepted frames, not f's position.
func replay(f io.Reader) ([]ReplayRecord, int64, uint64, error) {
	r := bufio.NewReaderSize(f, replayBuffer)
	hdr := make([]byte, walHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: short header", ErrBadWAL)
	}
	if [8]byte(hdr[:8]) != walMagic {
		return nil, 0, 0, fmt.Errorf("%w: bad magic", ErrBadWAL)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != WALVersion {
		return nil, 0, 0, fmt.Errorf("%w: unsupported version %d (have %d)", ErrBadWAL, v, WALVersion)
	}
	startGen := binary.LittleEndian.Uint64(hdr[12:])

	var records []ReplayRecord
	lastGen := startGen
	n := scanRecords(r, func(rec ReplayRecord) bool {
		if rec.Seq != uint64(len(records))+1 || rec.Gen < lastGen {
			return false
		}
		lastGen = rec.Gen
		records = append(records, rec)
		return true
	})
	return records, walHeaderSize + n, startGen, nil
}

// scanRecords reads framed records from r, hands each to accept, and
// returns the bytes the accepted frames occupy. A log ends at the first
// frame that fails any check below; the prefix before it stands.
func scanRecords(r io.Reader, accept func(ReplayRecord) bool) int64 {
	var n int64
	var frame [8]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return n // clean EOF or torn length field
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		if length > maxWALRecord {
			return n // implausible length: corrupt frame
		}
		payload, err := readPayload(r, int(length))
		if err != nil {
			return n // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
			return n // corrupt payload
		}
		rec, err := decodeRecord(payload)
		if err != nil || !accept(rec) {
			return n // CRC-valid but undecodable, or out of the caller's sequence
		}
		n += 8 + int64(length)
	}
}

// readPayload reads length bytes from r. It allocates in steps of at most
// replayBuffer as the bytes arrive, so a torn frame whose length field
// claims far more than r holds costs about what r supplied (at most twice
// that, plus one step), not what the frame claimed. A payload that fits one
// step — every ordinary record — is one exact allocation.
func readPayload(r io.Reader, length int) ([]byte, error) {
	var payload []byte
	for len(payload) < length {
		step := min(length-len(payload), replayBuffer)
		payload = slices.Grow(payload, step)
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+step]); err != nil {
			return nil, err
		}
		payload = payload[:len(payload)+step]
	}
	return payload, nil
}

// EncodeRecord serializes one (seq, gen, batch) record payload in the
// WAL's record encoding without the length+CRC framing — the standby feed
// ships records inside the cluster's own integrity-framed messages, so the
// file framing would be redundant on the wire.
func EncodeRecord(seq, gen uint64, b graph.Batch) ([]byte, error) {
	frame, err := appendFramedRecord(nil, seq, gen, b)
	if err != nil {
		return nil, err
	}
	return frame[8:], nil
}

// DecodeRecord parses a record payload produced by EncodeRecord (or
// carried inside a WAL frame).
func DecodeRecord(payload []byte) (ReplayRecord, error) {
	return decodeRecord(payload)
}

// appendFramedRecord appends one complete framed record — header plus
// (seq, gen, batch) payload — to buf, reusing its capacity. It is the one
// encoder behind both the WAL and the standby feed, so records fed over
// the wire and records appended locally are byte-identical for identical
// stamps.
func appendFramedRecord(buf []byte, seq, gen uint64, b graph.Batch) ([]byte, error) {
	frame := append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	frame = binary.LittleEndian.AppendUint64(frame, seq)
	frame = binary.LittleEndian.AppendUint64(frame, gen)
	frame = binary.AppendUvarint(frame, uint64(len(b)))
	for _, u := range b {
		switch u.Op {
		case graph.Insert:
			frame = append(frame, 0)
		case graph.Delete:
			frame = append(frame, 1)
		default:
			return frame[:len(buf)], fmt.Errorf("store: record encode: unknown op %v", u.Op)
		}
		frame = binary.AppendVarint(frame, int64(u.From))
		frame = binary.AppendVarint(frame, int64(u.To))
		if u.Op == graph.Insert {
			frame = binary.AppendUvarint(frame, uint64(len(u.FromLabel)))
			frame = append(frame, u.FromLabel...)
			frame = binary.AppendUvarint(frame, uint64(len(u.ToLabel)))
			frame = append(frame, u.ToLabel...)
		}
	}
	payload := frame[len(buf)+8:]
	binary.LittleEndian.PutUint32(frame[len(buf):len(buf)+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[len(buf)+4:len(buf)+8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// Append encodes b as one record stamped (seq, gen) and writes it,
// fsyncing per the policy. The write-ahead contract is the caller's:
// append first, mutate after.
func (w *WAL) Append(b graph.Batch, gen uint64) error {
	if w.broken != nil {
		return w.broken
	}
	w.seq++
	// The record is built in the reused scratch, so the whole thing goes
	// out in one Write with no per-append allocation (warm), and the
	// common crash leaves either no bytes or a cleanly torn tail, never an
	// interleaving.
	frame, err := appendFramedRecord(w.buf[:0], w.seq, gen, b)
	w.buf = frame[:0]
	if err != nil {
		w.seq--
		return fmt.Errorf("store: WAL append: %w", err)
	}
	_, err = w.f.Write(frame)
	if err == nil {
		w.size += int64(len(frame))
		if w.policy == SyncAlways {
			err = w.f.Sync()
			if err != nil {
				// The record hit the file but its durability was never
				// acknowledged: leaving it would make the durable state
				// diverge from what the caller believes happened (a retry
				// would log the batch twice and wedge recovery).
				w.size -= int64(len(frame))
			}
		}
	}
	if err != nil {
		// A partial write leaves torn bytes that replay would treat as the
		// log's end, and an unsynced-but-written record is a lie about
		// durability — both roll the file back to the last clean end. If
		// even that fails, wedge the log so no further append can be
		// acknowledged after the orphaned bytes.
		w.seq--
		if terr := w.truncateToSize(); terr != nil {
			w.broken = fmt.Errorf("%w: append: %v; truncate: %v", ErrWALBroken, err, terr)
		}
		return err
	}
	return nil
}

// truncateToSize discards any bytes past the last cleanly appended record
// and makes the truncation durable, so a rolled-back record cannot
// resurface in a later replay.
func (w *WAL) truncateToSize() error {
	if err := w.f.Truncate(w.size); err != nil {
		return err
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

// decodeRecord parses one CRC-validated payload. It accepts only what
// appendFramedRecord writes — every varint minimal — so an accepted payload
// re-encodes to its own bytes.
func decodeRecord(payload []byte) (ReplayRecord, error) {
	var rec ReplayRecord
	if len(payload) < 16 {
		return rec, fmt.Errorf("%w: short record", ErrBadWAL)
	}
	rec.Seq = binary.LittleEndian.Uint64(payload)
	rec.Gen = binary.LittleEndian.Uint64(payload[8:])
	off := 16
	n, k := binary.Uvarint(payload[off:])
	// A delete is the smallest update (op byte + two 1-byte varints), so a
	// CRC-valid but corrupt count past len/3 is impossible — reject before
	// the allocation, not after.
	if !minimal(payload[off:], k) || n > uint64(len(payload))/3 {
		return rec, fmt.Errorf("%w: bad update count", ErrBadWAL)
	}
	off += k
	rec.Batch = make(graph.Batch, 0, n)
	readVarint := func() (int64, bool) {
		v, k := binary.Varint(payload[off:])
		if !minimal(payload[off:], k) {
			return 0, false
		}
		off += k
		return v, true
	}
	readString := func() (string, bool) {
		l, k := binary.Uvarint(payload[off:])
		// Compare against the remaining bytes without addition, so a
		// corrupt length near 2^64 cannot overflow past the check.
		if !minimal(payload[off:], k) || l > uint64(len(payload)-off-k) {
			return "", false
		}
		off += k
		s := string(payload[off : off+int(l)])
		off += int(l)
		return s, true
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(payload) {
			return rec, fmt.Errorf("%w: truncated update", ErrBadWAL)
		}
		op := payload[off]
		off++
		from, ok := readVarint()
		if !ok {
			return rec, fmt.Errorf("%w: truncated update", ErrBadWAL)
		}
		to, ok := readVarint()
		if !ok {
			return rec, fmt.Errorf("%w: truncated update", ErrBadWAL)
		}
		u := graph.Update{From: graph.NodeID(from), To: graph.NodeID(to)}
		switch op {
		case 0:
			u.Op = graph.Insert
			if u.FromLabel, ok = readString(); !ok {
				return rec, fmt.Errorf("%w: truncated label", ErrBadWAL)
			}
			if u.ToLabel, ok = readString(); !ok {
				return rec, fmt.Errorf("%w: truncated label", ErrBadWAL)
			}
		case 1:
			u.Op = graph.Delete
		default:
			return rec, fmt.Errorf("%w: unknown op byte %d", ErrBadWAL, op)
		}
		rec.Batch = append(rec.Batch, u)
	}
	if off != len(payload) {
		return rec, fmt.Errorf("%w: %d trailing bytes", ErrBadWAL, len(payload)-off)
	}
	return rec, nil
}

// minimal reports whether the varint that binary.Uvarint or binary.Varint
// read from b in k bytes was read whole and is minimally encoded: a longer
// form ends in a zero byte.
func minimal(b []byte, k int) bool { return k == 1 || k > 1 && b[k-1] != 0 }

// Seq returns the sequence number of the last appended record.
func (w *WAL) Seq() uint64 { return w.seq }

// Broken returns the wedging error set by an append failure whose partial
// write could not be rolled back, or nil while the log is appendable. A
// broken log is recovered by checkpointing (which starts a fresh log).
func (w *WAL) Broken() error { return w.broken }

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 { return w.size }

// Sync forces an fsync regardless of policy.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close syncs (under SyncAlways) and closes the log.
func (w *WAL) Close() error {
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}
