package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// faultGraph builds the deterministic graph the fault drills run over.
func faultGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Synthetic(gen.GraphSpec{Nodes: 80, Edges: 300, Labels: 4, GiantSCCFrac: 0.4, Seed: 11})
}

// TestFaultFSDeterminismPin is the disk-chaos determinism pin: the same
// seed and rules over the same traffic produce the same event log, run to
// run, even though snapshot and manifest rotation go through
// randomly-named temp files. SyncLie is the probe kind because it returns
// success — control flow (and therefore traffic) is identical whether or
// not a rule fires, so the two runs are honestly comparable.
func TestFaultFSDeterminismPin(t *testing.T) {
	run := func(dir string) []string {
		ffs := NewFaultFS(42, FSRule{Op: "sync", Prob: 0.5, Kind: FaultSyncLie})
		g := faultGraph(t)
		s, err := Create(dir, g, Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		scratch := g
		for i := 0; i < 6; i++ {
			b := gen.Updates(scratch, gen.UpdateSpec{Count: 20, InsertRatio: 0.6, Locality: 0.5, Seed: int64(300 + i)})
			if err := s.Append(b, scratch.Generation()); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if err := scratch.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			if i == 3 {
				if err := s.Checkpoint(scratch); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
		}
		s.Close()
		return ffs.Events()
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if len(a) == 0 {
		t.Fatal("no faults fired; the pin is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event logs diverged across identical runs:\n run1: %v\n run2: %v", a, b)
	}
	for _, ev := range a {
		if strings.Contains(ev, ".snap-") || strings.Contains(ev, ".manifest-") {
			if !strings.Contains(ev, "-*") {
				t.Fatalf("temp-file event %q not normalized", ev)
			}
		}
	}
}

// TestFaultFSCrashWedges pins the ErrCrashed contract: after an injected
// crash, every subsequent operation fails with ErrCrashed rather than
// touching the disk.
func TestFaultFSCrashWedges(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(1, FSRule{Op: "write", Index: 1, Kind: FaultCrash})
	f, err := ffs.OpenFile(filepath.Join(dir, "x.log"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("first")); err != nil {
		t.Fatalf("pre-crash write: %v", err)
	}
	if _, err := f.Write([]byte("second")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash write: got %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() = false after injected crash")
	}
	if _, err := f.Write([]byte("third")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: got %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: got %v, want ErrCrashed", err)
	}
	if _, err := ffs.OpenFile(filepath.Join(dir, "y.log"), os.O_RDWR|os.O_CREATE, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open: got %v, want ErrCrashed", err)
	}
}

// faultBatch is the one-update batch the every-byte-boundary drills append:
// its WAL frame is 32 bytes.
func faultBatch(i int) graph.Batch {
	return graph.Batch{graph.InsNew(graph.NodeID(i), graph.NodeID(i+1), "a", "b")}
}

// faultFrameLen is the length of faultBatch's WAL frame: the length+CRC
// header plus the record payload.
func faultFrameLen(t *testing.T) int {
	t.Helper()
	payload, err := EncodeRecord(2, 2, faultBatch(5))
	if err != nil {
		t.Fatal(err)
	}
	return len(payload) + 8
}

// TestReplicaLogAppendFaultEveryByteBoundary drives a WAL append into an
// injected partial write at every byte boundary of the record frame — 0
// bytes landed through the whole frame landed — for both the ENOSPC and
// torn-write kinds. The WAL is the one replica log left: a standby appends
// every fed record to its own store's WAL. The contract at every boundary is
// the same: the failed append is rolled back (Seq does not advance, the log
// is not wedged), a reopen sees exactly the pre-fault records, and the log
// continues from there.
func TestReplicaLogAppendFaultEveryByteBoundary(t *testing.T) {
	b1, b2 := faultBatch(2), faultBatch(5)
	frameLen := faultFrameLen(t)
	for _, kind := range []FaultKind{FaultENOSPC, FaultTornWrite} {
		for keep := 0; keep <= frameLen; keep++ {
			t.Run(fmt.Sprintf("%s/keep%d", kind, keep), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "wal.log")
				// Write #0 is the header CreateWAL writes, #1 is b1, #2 is the
				// append under fire.
				ffs := NewFaultFS(9, FSRule{Op: "write", Path: "wal", Index: 2, Kind: kind, Keep: keep})
				w, err := CreateWAL(ffs, path, 0, SyncNone)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Append(b1, 1); err != nil {
					t.Fatal(err)
				}
				if err := w.Append(b2, 2); err == nil {
					t.Fatal("faulted append succeeded")
				}
				if w.Seq() != 1 {
					t.Fatalf("Seq after failed append = %d, want 1", w.Seq())
				}
				if err := w.Broken(); err != nil {
					t.Fatalf("rolled-back append wedged the log: %v", err)
				}
				w.Close()

				// Reopen on the real filesystem: the torn bytes must be gone.
				w2, recs, err := OpenWAL(nil, path, SyncNone)
				if err != nil {
					t.Fatal(err)
				}
				defer w2.Close()
				if len(recs) != 1 || !reflect.DeepEqual(recs[0].Batch, b1) {
					t.Fatalf("reopened log holds %d records, want only the pre-fault one", len(recs))
				}
				if err := w2.Append(b2, 2); err != nil {
					t.Fatalf("append after heal: %v", err)
				}
				recs, _, err = ReplayWAL(path)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 2 || recs[1].Seq != 2 || !reflect.DeepEqual(recs[1].Batch, b2) {
					t.Fatalf("replay after heal = %v, want b1 then b2 at seq 2", recs)
				}
			})
		}
	}
}

// TestWALTornAppendWedgesUntilReopen covers the double-fault path: the
// append's write tears AND the rollback truncate fails, so torn bytes stay
// on disk. The log must refuse every later append rather than acknowledge
// records behind bytes replay would stop at; the next open truncates the
// invalid tail, and the log continues from whatever survived — replay is
// always a clean prefix of what was appended.
func TestWALTornAppendWedgesUntilReopen(t *testing.T) {
	b1, b2, b3 := faultBatch(2), faultBatch(5), faultBatch(9)
	frameLen := faultFrameLen(t)
	for keep := 0; keep <= frameLen; keep++ {
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			ffs := NewFaultFS(9,
				FSRule{Op: "write", Path: "wal", Index: 2, Kind: FaultTornWrite, Keep: keep},
				FSRule{Op: "truncate", Path: "wal", Kind: FaultEIO})
			w, err := CreateWAL(ffs, path, 0, SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(b1, 1); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(b2, 2); err == nil {
				t.Fatal("faulted append succeeded")
			}
			if err := w.Append(b3, 3); !errors.Is(err, ErrWALBroken) {
				t.Fatalf("append behind unrolled torn bytes: got %v, want ErrWALBroken", err)
			}
			w.Close()

			w2, recs, err := OpenWAL(nil, path, SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			// keep == frameLen leaves a complete, CRC-valid record: the
			// reopen legitimately adopts it. Anything shorter is a torn tail
			// the open truncates back to b1.
			want := 1
			if keep == frameLen {
				want = 2
			}
			if len(recs) != want {
				t.Fatalf("reopened log holds %d records, want %d", len(recs), want)
			}
			if err := w2.Append(b3, 3); err != nil {
				t.Fatalf("append after seq %d survived: %v", want, err)
			}
			if w2.Seq() != uint64(want+1) {
				t.Fatalf("Seq = %d, want %d", w2.Seq(), want+1)
			}
		})
	}
}

// TestStoreCheckpointFaultMatrix fails MANIFEST rotation at every stage —
// snapshot write, fresh-WAL creation, manifest temp create/write/sync,
// the commit rename, and the directory fsync after it — and checks the
// crash-safety contract each time: Checkpoint reports the failure, the
// store stays appendable, and a clean reopen sees every acked batch
// (served by the old pair when the commit never happened, by the new pair
// when only its durability was left uncertain).
func TestStoreCheckpointFaultMatrix(t *testing.T) {
	stages := []struct {
		name string
		rule FSRule
	}{
		{"snapshot-write", FSRule{Op: "write", Path: ".snap-", Kind: FaultEIO}},
		{"snapshot-enospc", FSRule{Op: "write", Path: ".snap-", Kind: FaultENOSPC, Keep: 10}},
		{"wal-create-sync", FSRule{Op: "sync", Path: "wal-00000002", Kind: FaultSyncFail}},
		{"manifest-create", FSRule{Op: "create", Path: ".manifest", Kind: FaultEIO}},
		{"manifest-write", FSRule{Op: "write", Path: ".manifest", Kind: FaultENOSPC, Keep: 7}},
		{"manifest-sync", FSRule{Op: "sync", Path: ".manifest", Kind: FaultSyncFail}},
		{"manifest-rename", FSRule{Op: "rename", Path: "MANIFEST", Kind: FaultEIO}},
		{"dir-sync", FSRule{Op: "syncdir", Kind: FaultSyncFail}},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			g := faultGraph(t)
			s, err := Create(dir, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				b := gen.Updates(g, gen.UpdateSpec{Count: 15, InsertRatio: 0.6, Locality: 0.5, Seed: int64(400 + i)})
				if err := s.Append(b, g.Generation()); err != nil {
					t.Fatal(err)
				}
				if err := g.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			ffs := NewFaultFS(5, st.rule)
			s2, g2, recs, err := Open(dir, Options{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := g2.ApplyBatch(rec.Batch); err != nil {
					t.Fatal(err)
				}
			}
			if !g2.Equal(g) {
				t.Fatal("recovered graph diverged before the drill even started")
			}
			if err := s2.Checkpoint(g2); err == nil {
				t.Fatal("checkpoint under injected fault reported success")
			}
			if ffs.Fired() == 0 {
				t.Fatal("rule never fired; the stage name is stale")
			}
			// The store must stay appendable after the failed rotation —
			// whichever pair is current.
			post := gen.Updates(g2, gen.UpdateSpec{Count: 10, InsertRatio: 0.6, Locality: 0.5, Seed: 999})
			if err := s2.Append(post, g2.Generation()); err != nil {
				t.Fatalf("append after failed checkpoint: %v", err)
			}
			if err := g2.ApplyBatch(post); err != nil {
				t.Fatal(err)
			}
			s2.Close()

			// Clean reopen: every acked batch present, nothing else.
			s3, g3, recs3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after faulted checkpoint: %v", err)
			}
			defer s3.Close()
			for _, rec := range recs3 {
				if err := g3.ApplyBatch(rec.Batch); err != nil {
					t.Fatal(err)
				}
			}
			if !g3.Equal(g2) {
				t.Fatalf("stage %s: reopened graph lost acked batches", st.name)
			}
		})
	}
}

// TestWALSyncLieVersusSyncFailParity is the fsyncgate drill. Two WALs
// take the same four appends with a fault on the third append's fsync and
// a power failure on the next sync after it. When the third fsync FAILS,
// the append is not acknowledged, the record is rolled back, and replay
// after the power loss shows exactly the acknowledged prefix — "acked ⇒
// durable, not-acked ⇒ absent" holds. When the third fsync LIES, the
// append is acknowledged but the bytes never reached the platter, so the
// power loss erases an acked record — the one failure mode no storage
// layer can mask, which is why it exists here as an injectable kind: to
// prove the parity tests would catch a WAL that trusted a lying disk.
func TestWALSyncLieVersusSyncFailParity(t *testing.T) {
	batch := func(i int) graph.Batch {
		return graph.Batch{graph.InsNew(graph.NodeID(10*i), graph.NodeID(10*i+1), "a", "b")}
	}
	for _, tc := range []struct {
		kind      FaultKind
		pfIndex   int // the powerfail rule's own index for append 4's fsync
		wantAcked int // appends acknowledged before the crash
	}{
		// A fired rule returns before later rules' counters advance, so the
		// powerfail rule's index for "append 4's fsync" depends on the path:
		// under syncfail the rollback adds an extra sync the powerfail rule
		// counts (#3), pushing append 4's to #4; under synclie the lie
		// short-circuits rule evaluation at #3, so append 4's sync is the
		// powerfail rule's #3.
		{FaultSyncFail, 4, 2}, // append 3 refused and rolled back
		{FaultSyncLie, 3, 3},  // append 3 acked on a lie, then lost
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal-00000001.log")
			// Sync #0 is the header fsync at create; appends sync at #1, #2,
			// #3 (the faulted one), then the power failure.
			ffs := NewFaultFS(3,
				FSRule{Op: "sync", Path: "wal", Index: 3, Kind: tc.kind},
				FSRule{Op: "sync", Path: "wal", Index: tc.pfIndex, Kind: FaultPowerFail})
			w, err := CreateWAL(ffs, path, 0, SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i := 1; i <= 4; i++ {
				if err := w.Append(batch(i), uint64(i)); err == nil {
					acked++
				}
			}
			if acked != tc.wantAcked {
				t.Fatalf("acked %d appends, want %d", acked, tc.wantAcked)
			}
			if !ffs.Crashed() {
				t.Fatal("power failure never fired")
			}

			// Recovery reads the real file: only genuinely synced bytes
			// survived the power loss.
			recs, _, err := ReplayWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 {
				t.Fatalf("replayed %d records, want 2 (the truly durable prefix)", len(recs))
			}
			for i, rec := range recs {
				if !reflect.DeepEqual(rec.Batch, batch(i+1)) {
					t.Fatalf("record %d is not append %d", i, i+1)
				}
			}
			if tc.kind == FaultSyncFail && acked != len(recs) {
				t.Fatalf("parity broken: %d acked, %d durable", acked, len(recs))
			}
			if tc.kind == FaultSyncLie && acked == len(recs) {
				t.Fatal("the lying fsync was somehow detected; this drill should lose an acked record")
			}
		})
	}
}
