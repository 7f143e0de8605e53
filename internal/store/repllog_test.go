package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"incgraph/internal/graph"
)

// replRec builds a small replicated record for log tests.
func replRec(seq, gen uint64) ReplayRecord {
	return ReplayRecord{Seq: seq, Gen: gen, Batch: graph.Batch{
		{Op: graph.Insert, From: graph.NodeID(seq), To: graph.NodeID(seq + 1), FromLabel: "a", ToLabel: "b"},
	}}
}

func TestReplicaLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenReplicaLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(3, 0); err != nil {
		t.Fatal(err)
	}
	// Sparse seqs: the shard only saw records 2, 5, 9.
	seqs := []uint64{2, 5, 9}
	prev := uint64(0)
	for _, s := range seqs {
		if err := l.Append(3, prev, replRec(s, s*10)); err != nil {
			t.Fatalf("append seq %d: %v", s, err)
		}
		prev = s
	}
	if got, _ := l.LastSeq(3); got != 9 {
		t.Fatalf("LastSeq = %d, want 9", got)
	}
	if n := l.Records(3); n != 3 {
		t.Fatalf("Records = %d, want 3", n)
	}
	recs, err := l.Replay(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replay decoded %d records, want 3", len(recs))
	}
	for i, s := range seqs {
		if recs[i].Seq != s || recs[i].Gen != s*10 {
			t.Fatalf("record %d = seq %d gen %d, want seq %d gen %d", i, recs[i].Seq, recs[i].Gen, s, s*10)
		}
		if len(recs[i].Batch) != 1 || recs[i].Batch[0].From != graph.NodeID(s) {
			t.Fatalf("record %d batch mismatch", i)
		}
	}
	l.Close()

	// Reopen: state survives, appends continue from the chain.
	l2, err := OpenReplicaLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, ok := l2.LastSeq(3); !ok || got != 9 {
		t.Fatalf("reopened LastSeq = %d,%v, want 9,true", got, ok)
	}
	if err := l2.Append(3, 9, replRec(12, 120)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if shards := l2.Shards(); len(shards) != 1 || shards[0] != 3 {
		t.Fatalf("Shards = %v, want [3]", shards)
	}
}

func TestReplicaLogGapDetection(t *testing.T) {
	for _, mode := range []string{"mem", "file"} {
		t.Run(mode, func(t *testing.T) {
			var l *ReplicaLog
			if mode == "mem" {
				l = NewMemReplicaLog()
			} else {
				var err error
				if l, err = OpenReplicaLog(t.TempDir(), SyncNone); err != nil {
					t.Fatal(err)
				}
				defer l.Close()
			}
			// Unplaced shard: any append is a gap.
			if err := l.Append(0, 0, replRec(1, 1)); !errors.Is(err, ErrSeqGap) {
				t.Fatalf("append to unplaced shard: err = %v, want ErrSeqGap", err)
			}
			if err := l.Reset(0, 4); err != nil {
				t.Fatal(err)
			}
			// Chain must start from the reset seq.
			if err := l.Append(0, 0, replRec(5, 5)); !errors.Is(err, ErrSeqGap) {
				t.Fatalf("wrong prevSeq: err = %v, want ErrSeqGap", err)
			}
			if err := l.Append(0, 4, replRec(7, 7)); err != nil {
				t.Fatal(err)
			}
			// Skipping a link is a gap; a failed append changes nothing.
			if err := l.Append(0, 9, replRec(11, 11)); !errors.Is(err, ErrSeqGap) {
				t.Fatalf("skipped link: err = %v, want ErrSeqGap", err)
			}
			// Replays and stale seqs are gaps too.
			if err := l.Append(0, 7, replRec(7, 7)); !errors.Is(err, ErrSeqGap) {
				t.Fatalf("stale seq: err = %v, want ErrSeqGap", err)
			}
			if got, _ := l.LastSeq(0); got != 7 {
				t.Fatalf("LastSeq after failed appends = %d, want 7", got)
			}
			if n := l.Records(0); n != 1 {
				t.Fatalf("Records = %d, want 1", n)
			}
			// Reset heals: restart the chain at the resync point.
			if err := l.Reset(0, 11); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(0, 11, replRec(12, 12)); err != nil {
				t.Fatalf("append after reset: %v", err)
			}
		})
	}
}

func TestReplicaLogTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenReplicaLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{1, 2, 3} {
		prev := s - 1
		if err := l.Append(1, prev, replRec(s, s)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the last record: chop bytes off the tail mid-payload.
	path := filepath.Join(dir, "repl-001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenReplicaLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The torn record is gone; the log regressed to seq 2 — exactly the
	// state the gap check turns into a resync when seq-3's successor
	// arrives chaining from 3.
	if got, _ := l2.LastSeq(1); got != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", got)
	}
	if err := l2.Append(1, 3, replRec(4, 4)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("append chaining past torn record: err = %v, want ErrSeqGap", err)
	}
	if err := l2.Append(1, 2, replRec(3, 3)); err != nil {
		t.Fatalf("re-append torn record: %v", err)
	}
	recs, err := l2.Replay(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("replay after repair = %d records (last seq %d), want 3 ending at 3", len(recs), recs[len(recs)-1].Seq)
	}
}

func TestReplicaLogDrop(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenReplicaLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Reset(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, 0, replRec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Drop(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.LastSeq(2); ok {
		t.Fatal("dropped shard still has a log")
	}
	if _, err := os.Stat(filepath.Join(dir, "repl-002.log")); !os.IsNotExist(err) {
		t.Fatalf("dropped shard file still exists: %v", err)
	}
	// Dropping again is a no-op.
	if err := l.Drop(2); err != nil {
		t.Fatal(err)
	}
}

// A flipped bit inside a label leaves a payload that still decodes; only the
// CRC tells. Replay must end at it, where Verify reports the damage and a
// reopen truncates.
func TestReplicaLogReplayChecksCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenReplicaLog(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Reset(1, 0); err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{1, 2, 3} {
		if err := l.Append(1, s-1, replRec(s, s)); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := appendFramedRecord(nil, 2, 2, replRec(2, 2).Batch)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "repl-001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Three equal-length frames; the last byte of each is the to-label "b".
	at := replHeaderSize + 2*len(frame) - 1
	if data[at] != 'b' {
		t.Fatalf("byte %d of the log is %q, want the second record's to-label", at, data[at])
	}
	data[at] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Replay(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("replay past a CRC mismatch returned %d records, want the 1 before it", len(recs))
	}
	if err := l.Verify(1); !errors.Is(err, ErrReplDamaged) {
		t.Fatalf("Verify = %v, want ErrReplDamaged", err)
	}
}
