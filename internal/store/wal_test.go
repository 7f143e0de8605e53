package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func walBatches() []graph.Batch {
	return []graph.Batch{
		{graph.InsNew(1, 2, "a", "b"), graph.InsNew(2, 3, "b", "c")},
		{graph.Del(1, 2)},
		{graph.InsNew(3, 1, "c", "a"), graph.Del(2, 3), graph.InsNew(1, 2, "a", "b")},
	}
}

func TestWALAppendReplay(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := CreateWAL(nil, path, 7, policy)
			if err != nil {
				t.Fatal(err)
			}
			batches := walBatches()
			for i, b := range batches {
				if err := w.Append(b, uint64(10+i)); err != nil {
					t.Fatal(err)
				}
			}
			if w.Seq() != uint64(len(batches)) {
				t.Fatalf("seq = %d, want %d", w.Seq(), len(batches))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			records, _, err := ReplayWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != len(batches) {
				t.Fatalf("replayed %d records, want %d", len(records), len(batches))
			}
			for i, rec := range records {
				if rec.Seq != uint64(i+1) || rec.Gen != uint64(10+i) {
					t.Fatalf("record %d stamped (%d,%d)", i, rec.Seq, rec.Gen)
				}
				if !reflect.DeepEqual(rec.Batch, batches[i]) {
					t.Fatalf("record %d batch mismatch:\n got %v\nwant %v", i, rec.Batch, batches[i])
				}
			}
		})
	}
}

// TestWALTornTail verifies the truncation-safe replay contract: cutting
// the log at every possible byte boundary inside the last record must
// recover exactly the records before it, and OpenWAL must truncate and
// remain appendable.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(nil, path, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	batches := walBatches()
	var sizes []int64
	for _, b := range batches {
		if err := w.Append(b, 0); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, w.Size())
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	recordsBefore := func(cut int64) int {
		n := 0
		for _, s := range sizes {
			if s <= cut {
				n++
			}
		}
		return n
	}
	for cut := sizes[len(sizes)-2] + 1; cut < sizes[len(sizes)-1]; cut += 3 {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		records, end, err := ReplayWAL(torn)
		if err != nil {
			t.Fatalf("cut %d: replay failed: %v", cut, err)
		}
		if len(records) != recordsBefore(cut) {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(records), recordsBefore(cut))
		}
		if end != sizes[len(sizes)-2] {
			t.Fatalf("cut %d: clean end %d, want %d", cut, end, sizes[len(sizes)-2])
		}
	}

	// Corrupt CRC mid-frame of the final record: same truncation.
	bad := append([]byte(nil), full...)
	bad[sizes[len(sizes)-2]+4] ^= 0xA5 // CRC field of last frame
	tornPath := filepath.Join(dir, "crc.log")
	if err := os.WriteFile(tornPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	records, end, err := ReplayWAL(tornPath)
	if err != nil || len(records) != len(batches)-1 {
		t.Fatalf("corrupt CRC: records=%d err=%v", len(records), err)
	}
	if end != sizes[len(sizes)-2] {
		t.Fatalf("corrupt CRC: end=%d want %d", end, sizes[len(sizes)-2])
	}

	// OpenWAL truncates the tail and stays appendable.
	w2, records, err := OpenWAL(nil, tornPath, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(batches)-1 {
		t.Fatalf("OpenWAL replayed %d records", len(records))
	}
	if err := w2.Append(graph.Batch{graph.InsNew(9, 10, "x", "y")}, 99); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	records, _, err = ReplayWAL(tornPath)
	if err != nil || len(records) != len(batches) {
		t.Fatalf("after truncate+append: records=%d err=%v", len(records), err)
	}
	if records[len(records)-1].Seq != uint64(len(batches)) {
		t.Fatalf("appended record has seq %d", records[len(records)-1].Seq)
	}
}

// TestWALTornTailPastBuffer: a log several read-ahead buffers long, with
// a record larger than the buffer and frames straddling its edges, whose
// last frame is torn or has a flipped payload byte. The buffered replay
// must end where the accepted frames end — where an unbuffered scan of the
// file ends — and OpenWAL must truncate there.
func TestWALTornTailPastBuffer(t *testing.T) {
	for _, mode := range []string{"torn", "crc"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := CreateWAL(nil, path, 0, SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			var sizes []int64
			for i := 0; i < 600; i++ {
				k := 32
				if i == 100 {
					k = 2 * replayBuffer / 9 // one record larger than the buffer
				}
				b := make(graph.Batch, k)
				for j := range b {
					b[j] = graph.InsNew(graph.NodeID(i*k+j), graph.NodeID(-j), "from", "to")
				}
				if err := w.Append(b, uint64(i)); err != nil {
					t.Fatal(err)
				}
				sizes = append(sizes, w.Size())
			}
			w.Close()
			clean := sizes[len(sizes)-2]
			if clean < 4*replayBuffer {
				t.Fatalf("the log's clean prefix is %d bytes, want several %d-byte buffers", clean, replayBuffer)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "torn":
				data = data[:len(data)-5]
			case "crc":
				data[len(data)-1] ^= 0xFF
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Seek(walHeaderSize, 0); err != nil {
				t.Fatal(err)
			}
			unbuffered := walHeaderSize + scanRecords(f, func(ReplayRecord) bool { return true })
			f.Close()
			records, end, err := ReplayWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if end != clean || unbuffered != clean || len(records) != len(sizes)-1 {
				t.Fatalf("replay ends at %d with %d records, an unbuffered scan at %d; want %d and %d", end, len(records), unbuffered, clean, len(sizes)-1)
			}
			w, records, err = OpenWAL(nil, path, SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != clean || w.Size() != clean || len(records) != len(sizes)-1 {
				t.Fatalf("OpenWAL left %d bytes, size %d, %d records; want %d bytes, %d records", st.Size(), w.Size(), len(records), clean, len(sizes)-1)
			}
		})
	}
}

// TestWALCorruptRecordNeverFatal hand-crafts CRC-valid but undecodable
// records — a label length near 2^64 (the overflow probe) and an
// implausible update count — and requires recovery to truncate at them
// rather than panic or over-allocate.
func TestWALCorruptRecordNeverFatal(t *testing.T) {
	mkPayload := func(poison func(p []byte) []byte) []byte {
		var p []byte
		p = binary.LittleEndian.AppendUint64(p, 2) // seq (record #2)
		p = binary.LittleEndian.AppendUint64(p, 0) // gen
		return poison(p)
	}
	cases := map[string]func(p []byte) []byte{
		"huge label length": func(p []byte) []byte {
			p = binary.AppendUvarint(p, 1)          // one update
			p = append(p, 0)                        // insert
			p = binary.AppendVarint(p, 1)           // from
			p = binary.AppendVarint(p, 2)           // to
			p = binary.AppendUvarint(p, ^uint64(0)) // from-label length: 2^64-1
			return p
		},
		"huge update count": func(p []byte) []byte {
			return binary.AppendUvarint(p, ^uint64(0)>>1)
		},
	}
	for name, poison := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := CreateWAL(nil, path, 0, SyncAlways)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(graph.Batch{graph.InsNew(1, 2, "a", "b")}, 0); err != nil {
				t.Fatal(err)
			}
			goodEnd := w.Size()
			w.Close()

			payload := mkPayload(poison)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(sealed(t, payload)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			records, end, err := ReplayWAL(path)
			if err != nil {
				t.Fatalf("replay must not fail: %v", err)
			}
			if len(records) != 1 || end != goodEnd {
				t.Fatalf("records=%d end=%d, want 1 record ending at %d", len(records), end, goodEnd)
			}
		})
	}
}

func TestStoreCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 4, 200, 800)
	s, err := Create(dir, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists = false after Create")
	}
	if _, err := Create(dir, g, Options{}); err == nil {
		t.Fatal("second Create must fail")
	}

	// Log two batches and apply them.
	b1 := graph.Batch{graph.InsNew(10_001, 10_002, "n", "n")}
	b2 := graph.Batch{graph.InsNew(10_002, 10_003, "n", "n")}
	for _, b := range []graph.Batch{b1, b2} {
		if err := s.Append(b, g.Generation()); err != nil {
			t.Fatal(err)
		}
		if err := g.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen: snapshot + replay reconstructs g.
	s2, h, records, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(records))
	}
	for _, rec := range records {
		if err := h.ApplyBatch(rec.Batch); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Equal(h) {
		t.Fatal("recovered graph differs")
	}

	// Checkpoint folds the WAL into a new snapshot; old files go away.
	if err := s2.Checkpoint(h); err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s2.Epoch())
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(1))); !os.IsNotExist(err) {
		t.Fatal("old snapshot not removed")
	}
	s2.Close()

	_, h2, records, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh WAL has %d records", len(records))
	}
	if !g.Equal(h2) {
		t.Fatal("post-checkpoint recovery differs")
	}
}

func TestOpenMissingStore(t *testing.T) {
	if _, _, _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("want ErrNoStore")
	}
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// FuzzDecodeRecord feeds the WAL record decoder arbitrary payloads. It
// must never panic, must fail only with ErrBadWAL, must allocate no more
// than a bound the payload's length sets, and a payload it accepts must
// re-encode to its own bytes. The seeds are every record of a real WAL and
// every truncation of each.
func FuzzDecodeRecord(f *testing.F) {
	for _, payload := range realWALPayloads(f) {
		for n := 0; n <= len(payload); n++ {
			f.Add(payload[:n])
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rec ReplayRecord
		var err error
		// A record holds at most len/3 updates of a fixed size plus label
		// bytes the payload carries, so 32 bytes per payload byte is ample;
		// a count or length the decoder trusted would exceed it.
		if used, bound := allocatedBytes(func() { rec, err = DecodeRecord(payload) }), 32*uint64(len(payload))+4096; used > bound {
			t.Fatalf("decoding %d bytes allocated %d, want ≤ %d", len(payload), used, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrBadWAL) {
				t.Fatalf("error is not ErrBadWAL: %v", err)
			}
			return
		}
		again, err := EncodeRecord(rec.Seq, rec.Gen, rec.Batch)
		if err != nil {
			t.Fatalf("an accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("record %+v re-encodes to\n%x\nwas\n%x", rec, again, payload)
		}
	})
}

// TestWALHugeClaimAllocatesLittle: a torn tail of one 8-byte frame header
// whose length field claims the largest record a frame may carry ends the
// scan at the frame before it, as every torn tail does, having allocated
// about what the reader supplied rather than the gigabyte it claimed.
func TestWALHugeClaimAllocatesLittle(t *testing.T) {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:], MaxFrame)
	var n int64
	used := allocatedBytes(func() { n = scanRecords(bytes.NewReader(frame[:]), func(ReplayRecord) bool { return true }) })
	if n != 0 {
		t.Fatalf("the scan accepted %d bytes of a torn frame", n)
	}
	if used >= 1<<20 {
		t.Fatalf("scanning an 8-byte frame that claims %d bytes allocated %d bytes, want < 1 MiB", MaxFrame, used)
	}
}

// FuzzScanRecords feeds the WAL frame scanner arbitrary bytes after the
// header. With fix set, every whole frame's CRC is first rewritten to match
// its payload, so that mutated payloads reach the record decoder. The scan
// must never panic, must allocate no more than a bound the input's length
// sets (whatever lengths its frames claim), and the frames it accepts must
// be exactly the encodings of the records it returned. The seeds are a
// real WAL's records, every truncation of them, and a frame claiming the
// largest record allowed.
func FuzzScanRecords(f *testing.F) {
	var log []byte
	for _, payload := range realWALPayloads(f) {
		log = append(log, sealed(f, payload)...)
	}
	for n := 0; n <= len(log); n += 7 {
		f.Add(log[:n], false)
	}
	f.Add(log, true)
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame), false)
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix {
			data = slices.Clone(data)
			for off := 0; off+8 <= len(data); {
				length := int(binary.LittleEndian.Uint32(data[off:]))
				if length > len(data)-off-8 {
					break
				}
				binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:off+8+length]))
				off += 8 + length
			}
		}
		var records []ReplayRecord
		var n int64
		// Each accepted frame holds at least a 16-byte stamp; its payload
		// is allocated once and decoded within FuzzDecodeRecord's bound. A
		// torn last frame costs at most one read step.
		used := allocatedBytes(func() {
			records = nil
			n = scanRecords(bytes.NewReader(data), func(rec ReplayRecord) bool {
				records = append(records, rec)
				return true
			})
		})
		if bound := 64*uint64(len(data)) + 2*replayBuffer + 4096; used > bound {
			t.Fatalf("scanning %d bytes allocated %d, want ≤ %d", len(data), used, bound)
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("the scan accepted %d bytes of %d", n, len(data))
		}
		var again []byte
		for _, rec := range records {
			var err error
			if again, err = appendFramedRecord(again, rec.Seq, rec.Gen, rec.Batch); err != nil {
				t.Fatalf("an accepted record does not re-encode: %v", err)
			}
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("%d accepted records re-encode to\n%x\nthe scan accepted\n%x", len(records), again, data[:n])
		}
	})
}

// realWALPayloads appends generated batches to a WAL file and returns the
// payloads of its frames as the file holds them.
func realWALPayloads(tb testing.TB) [][]byte {
	g := gen.Synthetic(gen.GraphSpec{Nodes: 40, Edges: 120, Labels: 5, Seed: 3})
	updates := gen.Updates(g, gen.UpdateSpec{Count: 24, InsertRatio: 0.5, Locality: 0.8, Seed: 3})
	batches := append(walBatches(), updates[:8], updates[8:9], updates[9:24])
	path := filepath.Join(tb.TempDir(), "wal.log")
	w, err := CreateWAL(nil, path, 0, SyncNone)
	if err != nil {
		tb.Fatal(err)
	}
	for i, b := range batches {
		if err := w.Append(b, uint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	var payloads [][]byte
	for rest := file[walHeaderSize:]; len(rest) > 0; {
		n := binary.LittleEndian.Uint32(rest)
		payloads = append(payloads, rest[8:8+n])
		rest = rest[8+n:]
	}
	if len(payloads) != len(batches) {
		tb.Fatalf("read %d records of %d", len(payloads), len(batches))
	}
	return payloads
}

// allocatedBytes returns the heap bytes f allocates, the least of three
// runs: the counter is the whole process's, and under -fuzz the fuzzing
// engine's goroutines allocate beside f, while what f allocates is the
// same every run. f must be repeatable.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
