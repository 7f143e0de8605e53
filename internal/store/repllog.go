package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"incgraph/internal/graph"
)

// EncodeRecord serializes one (seq, gen, batch) record payload in the
// WAL's record encoding without the length+CRC framing — replication
// ships records inside the cluster's own integrity-framed messages, so
// the file framing would be redundant on the wire.
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

// Per-shard replica logs. A ReplicaLog is the worker-side half of WAL
// replication: for every shard a worker owns it keeps an append-only log
// of the coordinator's committed records that touched that shard, in the
// WAL's exact record framing, so the cluster's durable history survives
// the loss of the coordinator's disk. Unlike the coordinator's WAL, a
// shard's log is *sparse* in the global sequence — a shard only sees the
// records that touched it — so continuity cannot be checked by seq
// arithmetic alone. Instead every replicated record carries the sequence
// number of the previous record that touched the shard (prevSeq), forming
// a per-shard hash-chain-without-the-hash: Append rejects a record whose
// prevSeq does not equal the log's last sequence (ErrSeqGap), which is how
// a replica that missed a record — worker restart, dropped frame, torn
// tail — detects the gap and forces the coordinator's parcel resync.
//
// # File format (file-backed mode, one file per shard)
//
//	header: magic [8]byte "incgrpl1", uint32 version, uint64 shard,
//	        uint64 baseSeq (the coordinator sequence the shard's replica
//	        was last placed/reset at; records continue from there)
//	records: the WAL's length+CRC record framing, sequence numbers
//	        strictly increasing (not contiguous — the log is sparse)
//
// Torn tails truncate exactly like the WAL's (scanRecords): the valid prefix
// is the log, and the resulting regressed last-sequence surfaces as a gap on the
// next Append, which heals through resync. In memory mode (no directory)
// the same state machine runs without files — the mode used by in-process
// workers in tests and benchmarks.

// replMagic identifies per-shard replica log files.
var replMagic = [8]byte{'i', 'n', 'c', 'g', 'r', 'p', 'l', '1'}

// ReplVersion is the current replica log format revision.
const ReplVersion = 1

// replHeaderSize is the fixed header length: magic, version, shard, baseSeq.
const replHeaderSize = 8 + 4 + 8 + 8

// ErrSeqGap reports a replicated record whose prevSeq does not match the
// shard log's last sequence: the replica missed at least one record and
// must be resynced from an authoritative parcel.
var ErrSeqGap = errors.New("store: replica log sequence gap")

// ErrBadReplLog reports a replica log file whose header cannot be parsed.
var ErrBadReplLog = errors.New("store: bad replica log")

// shardLog is one shard's log state.
type shardLog struct {
	f       File // nil in memory mode
	baseSeq uint64
	lastSeq uint64
	records int
	size    int64
}

// ReplicaLog manages the per-shard logs of one worker. Not safe for
// concurrent use; the worker's request mutex serializes access.
type ReplicaLog struct {
	dir    string // "" = memory mode
	fsys   FS
	policy SyncPolicy
	shards map[int]*shardLog
	buf    []byte // reused frame scratch
}

// NewMemReplicaLog returns a memory-mode replica log: the gap-detection
// state machine without files. Used by in-process workers.
func NewMemReplicaLog() *ReplicaLog {
	return &ReplicaLog{shards: make(map[int]*shardLog)}
}

// OpenReplicaLog opens (creating if needed) a file-backed replica log in
// dir: every repl-*.log file is scanned, its valid record prefix replayed
// and any torn tail truncated, restoring each shard's (baseSeq, lastSeq)
// so gap detection spans worker restarts.
func OpenReplicaLog(dir string, policy SyncPolicy) (*ReplicaLog, error) {
	return OpenReplicaLogFS(OS, dir, policy)
}

// OpenReplicaLogFS is OpenReplicaLog through an explicit filesystem.
func OpenReplicaLogFS(fsys FS, dir string, policy SyncPolicy) (*ReplicaLog, error) {
	fsys = fsOrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &ReplicaLog{dir: dir, fsys: fsys, policy: policy, shards: make(map[int]*shardLog)}
	names, err := fsys.Glob(filepath.Join(dir, "repl-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		sl, shard, err := openShardLog(fsys, name)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		l.shards[shard] = sl
	}
	return l, nil
}

// openShardLog opens one shard file, replays its valid prefix and
// truncates any torn tail, leaving it positioned for appends.
func openShardLog(fsys FS, path string) (*shardLog, int, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	hdr := make([]byte, replHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("%w: short header", ErrBadReplLog)
	}
	if [8]byte(hdr[:8]) != replMagic {
		f.Close()
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadReplLog)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != ReplVersion {
		f.Close()
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrBadReplLog, v)
	}
	shard := binary.LittleEndian.Uint64(hdr[12:])
	sl := &shardLog{f: f, baseSeq: binary.LittleEndian.Uint64(hdr[20:])}
	sl.lastSeq = sl.baseSeq
	sl.size = int64(replHeaderSize)
	sl.size += scanRecords(f, sl.accept)
	if err := f.Truncate(sl.size); err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := f.Seek(sl.size, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return sl, int(shard), nil
}

// accept is the shard log's ordering rule — sequence numbers strictly
// increasing, not contiguous — and counts the record in.
func (sl *shardLog) accept(rec ReplayRecord) bool {
	if rec.Seq <= sl.lastSeq {
		return false
	}
	sl.lastSeq = rec.Seq
	sl.records++
	return true
}

// Reset (re)initializes shard s's log at sequence seq: the state a replica
// is in right after an authoritative parcel placement — the parcel already
// embodies every record through seq, so the log restarts empty there. Any
// previous log content for the shard is discarded.
func (l *ReplicaLog) Reset(s int, seq uint64) error {
	if old := l.shards[s]; old != nil && old.f != nil {
		old.f.Close()
	}
	sl := &shardLog{baseSeq: seq, lastSeq: seq, size: int64(replHeaderSize)}
	if l.dir != "" {
		f, err := l.fs().OpenFile(l.path(s), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		var hdr []byte
		hdr = append(hdr, replMagic[:]...)
		hdr = binary.LittleEndian.AppendUint32(hdr, ReplVersion)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s))
		hdr = binary.LittleEndian.AppendUint64(hdr, seq)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return err
		}
		// Like the WAL header, the log's existence is durable under every
		// policy; only record durability is policy-relaxed.
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		sl.f = f
	}
	l.shards[s] = sl
	return nil
}

// Append appends one replicated record to shard s's log. prevSeq is the
// coordinator's sequence of the previous record that touched the shard;
// a mismatch with the log's last sequence returns ErrSeqGap and appends
// nothing — the caller reports the gap so the coordinator resyncs.
func (l *ReplicaLog) Append(s int, prevSeq uint64, rec ReplayRecord) error {
	sl, ok := l.shards[s]
	if !ok {
		return fmt.Errorf("%w: shard %d has no replica log (never placed)", ErrSeqGap, s)
	}
	if sl.lastSeq != prevSeq {
		return fmt.Errorf("%w: shard %d at seq %d, record chains from %d", ErrSeqGap, s, sl.lastSeq, prevSeq)
	}
	if rec.Seq <= sl.lastSeq {
		return fmt.Errorf("%w: shard %d at seq %d, record seq %d not ahead", ErrSeqGap, s, sl.lastSeq, rec.Seq)
	}
	if sl.f != nil {
		frame, err := appendFramedRecord(l.buf[:0], rec.Seq, rec.Gen, rec.Batch)
		l.buf = frame[:0]
		if err != nil {
			return err
		}
		if _, err := sl.f.Write(frame); err != nil {
			// Roll back any torn bytes so replay cannot resurface them; a
			// failed truncate leaves the torn tail, which the next open
			// truncates and the resulting seq regression heals as a gap.
			sl.f.Truncate(sl.size)
			sl.f.Seek(sl.size, io.SeekStart)
			return err
		}
		if l.policy == SyncAlways {
			if err := sl.f.Sync(); err != nil {
				sl.f.Truncate(sl.size)
				sl.f.Seek(sl.size, io.SeekStart)
				return err
			}
		}
		sl.size += int64(len(frame))
	}
	sl.lastSeq = rec.Seq
	sl.records++
	return nil
}

// Drop discards shard s's log (the shard replica was dropped).
func (l *ReplicaLog) Drop(s int) error {
	sl, ok := l.shards[s]
	if !ok {
		return nil
	}
	delete(l.shards, s)
	if sl.f != nil {
		sl.f.Close()
		return l.fs().Remove(l.path(s))
	}
	return nil
}

// LastSeq returns shard s's last logged sequence and whether the shard has
// a log at all.
func (l *ReplicaLog) LastSeq(s int) (uint64, bool) {
	sl, ok := l.shards[s]
	if !ok {
		return 0, false
	}
	return sl.lastSeq, true
}

// Records returns the number of records appended to shard s's log since
// its last reset.
func (l *ReplicaLog) Records(s int) int {
	sl, ok := l.shards[s]
	if !ok {
		return 0
	}
	return sl.records
}

// Shards returns the shards holding logs, sorted.
func (l *ReplicaLog) Shards() []int {
	out := make([]int, 0, len(l.shards))
	for s := range l.shards {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Replay decodes shard s's logged records in append order (file-backed
// mode only; memory mode retains no payloads).
func (l *ReplicaLog) Replay(s int) ([]ReplayRecord, error) {
	sl, ok := l.shards[s]
	if !ok || sl.f == nil {
		return nil, nil
	}
	if err := sl.f.Sync(); err != nil {
		return nil, err
	}
	data, err := l.readFile(s)
	if err != nil {
		return nil, err
	}
	if len(data) < replHeaderSize {
		return nil, nil
	}
	var out []ReplayRecord
	disk := shardLog{lastSeq: sl.baseSeq}
	scanRecords(bytes.NewReader(data[replHeaderSize:]), func(rec ReplayRecord) bool {
		ok := disk.accept(rec)
		if ok {
			out = append(out, rec)
		}
		return ok
	})
	return out, nil
}

// Close closes every shard file. The log remains reopenable.
func (l *ReplicaLog) Close() error {
	var first error
	for _, sl := range l.shards {
		if sl.f != nil {
			if err := sl.f.Close(); err != nil && first == nil {
				first = err
			}
			sl.f = nil
		}
	}
	return first
}

func (l *ReplicaLog) path(s int) string {
	return filepath.Join(l.dir, fmt.Sprintf("repl-%03d.log", s))
}

// fs returns the log's filesystem, defaulting to the real one.
func (l *ReplicaLog) fs() FS { return fsOrOS(l.fsys) }

// readFile reads shard s's log file in full through the filesystem seam.
func (l *ReplicaLog) readFile(s int) ([]byte, error) {
	f, err := l.fs().OpenFile(l.path(s), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// ErrReplDamaged reports a replica log whose on-disk bytes no longer back
// the state the replica acknowledged: the durable record prefix ends
// before the in-memory last sequence (bit flip, torn overwrite, external
// truncation). The replica must be resynced from an authoritative parcel.
var ErrReplDamaged = errors.New("store: replica log damaged")

// Verify re-reads shard s's log file and checks that its valid record
// prefix still backs the acknowledged in-memory state. It returns nil for
// an intact log (and always in memory mode, which has no file to rot) and
// an ErrReplDamaged-wrapped error when the durable prefix has regressed —
// the anti-entropy scrubber's disk-side check.
func (l *ReplicaLog) Verify(s int) error {
	sl, ok := l.shards[s]
	if !ok || sl.f == nil {
		return nil
	}
	data, err := l.readFile(s)
	if err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrReplDamaged, s, err)
	}
	if len(data) < replHeaderSize {
		return fmt.Errorf("%w: shard %d: short header", ErrReplDamaged, s)
	}
	if [8]byte(data[:8]) != replMagic ||
		binary.LittleEndian.Uint32(data[8:]) != ReplVersion ||
		binary.LittleEndian.Uint64(data[12:]) != uint64(s) ||
		binary.LittleEndian.Uint64(data[20:]) != sl.baseSeq {
		return fmt.Errorf("%w: shard %d: corrupt header", ErrReplDamaged, s)
	}
	disk := shardLog{lastSeq: sl.baseSeq}
	scanRecords(bytes.NewReader(data[replHeaderSize:]), disk.accept)
	if disk.lastSeq < sl.lastSeq || disk.records < sl.records {
		return fmt.Errorf("%w: shard %d: durable prefix ends at seq %d (%d records), acknowledged through seq %d (%d records)",
			ErrReplDamaged, s, disk.lastSeq, disk.records, sl.lastSeq, sl.records)
	}
	return nil
}
