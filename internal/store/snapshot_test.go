package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// testGraph builds a deterministic random graph on the given shard count,
// with edge deletions that leave some nodes isolated.
func testGraph(t testing.TB, shards, nodes, edges int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := graph.NewSharded(shards)
	for v := 0; v < nodes; v++ {
		g.AddNode(graph.NodeID(v), fmt.Sprintf("l%d", v%11))
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)))
	}
	for i := 0; i < nodes/10; i++ {
		v := graph.NodeID(rng.Intn(nodes))
		for _, w := range slices.Clone(g.SuccessorsSorted(v)) {
			g.DeleteEdge(v, w)
		}
	}
	return g
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g := testGraph(t, shards, 500, 2500)
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, g); err != nil {
				t.Fatal(err)
			}
			h, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(h) {
				t.Fatal("snapshot round trip lost graph state")
			}
			if h.Generation() != g.Generation() {
				t.Fatalf("generation %d != %d", h.Generation(), g.Generation())
			}
			if h.NumShards() != g.NumShards() {
				t.Fatalf("shards %d != %d", h.NumShards(), g.NumShards())
			}
			// The loaded graph takes further mutations like the original.
			fresh := graph.NodeID(1_000_000)
			g.AddNode(fresh, "x")
			h.AddNode(fresh, "x")
			b := graph.Batch{graph.Ins(fresh, fresh)}
			if err := g.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			if err := h.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			if !g.Equal(h) {
				t.Fatal("post-load mutation diverged")
			}
		})
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := testGraph(t, 4, 300, 1500)
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	// Equal graphs built in opposite orders, whose nodes hold other slots,
	// write the same bytes.
	var up, down bytes.Buffer
	if err := WriteSnapshot(&up, rebuilt(g, false)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&down, rebuilt(g, true)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(up.Bytes(), down.Bytes()) {
		t.Fatal("Equal graphs built in different orders wrote different snapshots")
	}
}

// rebuilt returns a copy of g at g's shard count built node by node, then
// edge by edge, in ascending or descending order.
func rebuilt(g *graph.Graph, descending bool) *graph.Graph {
	nodes, edges := g.NodesSorted(), slices.Clone(g.EdgesSorted())
	if descending {
		slices.Reverse(nodes)
		slices.Reverse(edges)
	}
	h := graph.NewSharded(g.NumShards())
	for _, v := range nodes {
		h.AddNode(v, g.Label(v))
	}
	for _, e := range edges {
		h.AddEdge(e.From, e.To)
	}
	return h
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, testGraph(t, shards, 100, 400)); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()
			corrupt := func(edit func([]byte)) []byte {
				bad := append([]byte(nil), good...)
				edit(bad)
				return bad
			}
			for _, c := range []struct {
				name string
				snap []byte
			}{
				// A flipped byte in the last segment: the CRC catches it.
				{"corrupt segment", corrupt(func(b []byte) { b[len(b)-1] ^= 0xFF })},
				{"bad magic", corrupt(func(b []byte) { b[0] = 'X' })},
				{"unknown version", corrupt(func(b []byte) { b[8] = 99 })},
				// Version 1 carried slots; its segments are not read.
				{"version 1", corrupt(func(b []byte) { b[8] = 1 })},
				{"truncated", good[:len(good)/2]},
				{"wrapped segment length", wrapSegmentLength(good)},
				{"non-minimal varint", nonMinimalSegment(t, good)},
			} {
				if _, err := ReadSnapshot(bytes.NewReader(c.snap), int64(len(c.snap))); !errors.Is(err, ErrBadSnapshot) {
					t.Errorf("%s: err = %v, want ErrBadSnapshot", c.name, err)
				}
			}
		})
	}
}

// wrapSegmentLength returns a copy of snap whose first directory entry has
// offset 10 and length 2⁶⁴−9: their sum wraps around to 1, inside any file.
func wrapSegmentLength(snap []byte) []byte {
	bad := append([]byte(nil), snap...)
	dir := directoryAt(bad)
	binary.LittleEndian.PutUint64(bad[dir:], 10)
	binary.LittleEndian.PutUint64(bad[dir+8:], 1<<64-9)
	return bad
}

// nonMinimalSegment returns a copy of snap whose last segment spells its
// node count in one byte more than it needs — a form no encoder writes —
// with that segment's directory length and CRC rewritten to match.
func nonMinimalSegment(t *testing.T, snap []byte) []byte {
	t.Helper()
	h, err := readSnapHeader(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	last, entry := h.segments[len(h.segments)-1], directoryAt(snap)+20*(len(h.segments)-1)
	body := padFirstVarint(t, snap[last.offset:])
	out := append(slices.Clone(snap[:last.offset]), body...)
	binary.LittleEndian.PutUint64(out[entry+8:], uint64(len(body)))
	binary.LittleEndian.PutUint32(out[entry+16:], crc32.ChecksumIEEE(body))
	return out
}

// padFirstVarint returns b with its leading varint one byte longer: the
// same value, with a continuation bit and a zero byte added.
func padFirstVarint(t *testing.T, b []byte) []byte {
	t.Helper()
	r := Reader{buf: b, bad: ErrBadSnapshot}
	if r.Uvarint(); r.Err() != nil {
		t.Fatal(r.Err())
	}
	n := r.off
	out := slices.Clone(b[:n])
	out[n-1] |= 0x80
	out = append(out, 0)
	return append(out, b[n:]...)
}

// directoryAt returns the position of the segment directory in a snapshot
// whose header parses: after the fixed 44 bytes and the label table.
func directoryAt(snap []byte) int {
	pos := 44
	for i := uint32(0); i < binary.LittleEndian.Uint32(snap[40:]); i++ {
		pos += 4 + int(binary.LittleEndian.Uint32(snap[pos:]))
	}
	return pos
}

// FuzzReadSnapshot decodes arbitrary bytes as a snapshot: the decoder never
// panics, every error it returns is ErrBadSnapshot, and a graph it accepts
// writes and reads back Equal. Each input is decoded twice, as given and
// with its directory CRCs recomputed, so mutations reach the segment
// decoder instead of stopping at the CRC check.
func FuzzReadSnapshot(f *testing.F) {
	var oneShard []byte
	for _, g := range []*graph.Graph{graph.New(), testGraph(f, 1, 30, 90), testGraph(f, 2, 30, 90)} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if g.NumShards() == 1 {
			oneShard = buf.Bytes()
		}
	}
	f.Add(wrapSegmentLength(oneShard))
	f.Fuzz(func(t *testing.T, snap []byte) {
		checkSnapshotDecode(t, snap)
		h, err := readSnapHeader(bytes.NewReader(snap), int64(len(snap)))
		if err != nil {
			return
		}
		fixed := append([]byte(nil), snap...)
		dir := directoryAt(fixed)
		for s, seg := range h.segments {
			crc := crc32.ChecksumIEEE(fixed[seg.offset : seg.offset+seg.length])
			binary.LittleEndian.PutUint32(fixed[dir+20*s+16:], crc)
		}
		checkSnapshotDecode(t, fixed)
	})
}

func checkSnapshotDecode(t *testing.T, snap []byte) {
	t.Helper()
	g, err := ReadSnapshot(bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("error is not ErrBadSnapshot: %v", err)
		}
		return
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatalf("an accepted graph does not write back: %v", err)
	}
	h, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("an accepted graph's snapshot does not read back: %v", err)
	}
	if !h.Equal(g) || !g.Equal(h) {
		t.Fatal("an accepted graph changed through WriteSnapshot → ReadSnapshot")
	}
}

// TestReadSnapshotAllocations pins what a load allocates: the adjacency
// slices, at most two per node, plus a per-shard constant (the segment
// buffer, the decoded state, the node table and index growth, the sorted
// node list, the label classes) — at most 2·|V| + 64·P in all. A node record
// that comes back as a heap object of its own adds |V| and fails it.
func TestReadSnapshotAllocations(t *testing.T) {
	for _, p := range []int{1, 8} {
		g := testGraph(t, p, 10_000, 50_000)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ReadSnapshot(bytes.NewReader(snap), int64(len(snap))); err != nil {
				t.Fatal(err)
			}
		})
		if bound := 2*g.NumNodes() + 64*p; allocs > float64(bound) {
			t.Errorf("shards=%d: ReadSnapshot of |V|=%d allocates %.0f times, want ≤ 2·|V| + 64·P = %d",
				p, g.NumNodes(), allocs, bound)
		}
	}
}

func TestSnapshotFileAndSniff(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 4, 200, 800)
	snapPath := filepath.Join(dir, "g.snap")
	if err := WriteSnapshotFile(nil, snapPath, g); err != nil {
		t.Fatal(err)
	}
	ok, err := IsSnapshotFile(snapPath)
	if err != nil || !ok {
		t.Fatalf("IsSnapshotFile(snap) = %v, %v", ok, err)
	}

	textPath := filepath.Join(dir, "g.txt")
	f := mustCreate(t, textPath)
	if err := graph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ok, err = IsSnapshotFile(textPath)
	if err != nil || ok {
		t.Fatalf("IsSnapshotFile(text) = %v, %v", ok, err)
	}

	// ReadGraphFile loads both formats identically.
	hs, err := ReadGraphFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := ReadGraphFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if !hs.Equal(g) || !ht.Equal(g) {
		t.Fatal("ReadGraphFile lost graph state")
	}
}

// BenchmarkSnapshotLoad is the snapshot format's reason to exist: loading
// a binary snapshot ("snap-load", which fans out across shards) against
// the line-by-line rebuild from the text format ("text-read"), on synthetic
// graphs with |E| = 5|V|. Both read from memory, so the comparison is
// decode and construction cost, not disk bandwidth.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, n := range []int{25_000, 50_000, 100_000} {
		g := gen.Synthetic(gen.GraphSpec{Nodes: n, Edges: 5 * n, Labels: 50, GiantSCCFrac: 0.3, Seed: 1})
		benchmarkLoads(b, fmt.Sprintf("V=%d", n), g)
	}
	// Every node in one label class, over 8 shards: a load rebuilds that
	// class of the label index from 200k nodes, in linear time only if it
	// adds them in global ascending order rather than shard by shard.
	g := gen.Synthetic(gen.GraphSpec{Nodes: 200_000, Edges: 400_000, Labels: 1, Seed: 1})
	g.SetShards(8)
	benchmarkLoads(b, "V=200000/labels=1/shards=8", g)
}

// benchmarkLoads times reading g back from its text form and from its
// snapshot, as the sub-benchmarks name/text-read and name/snap-load.
func benchmarkLoads(b *testing.B, name string, g *graph.Graph) {
	var text, snap bytes.Buffer
	if err := graph.Write(&text, g); err != nil {
		b.Fatal(err)
	}
	if err := WriteSnapshot(&snap, g); err != nil {
		b.Fatal(err)
	}
	for _, load := range []struct {
		name string
		read func() (*graph.Graph, error)
	}{
		{"text-read", func() (*graph.Graph, error) { return graph.Read(bytes.NewReader(text.Bytes())) }},
		{"snap-load", func() (*graph.Graph, error) { return ReadSnapshot(bytes.NewReader(snap.Bytes()), int64(snap.Len())) }},
	} {
		b.Run(name+"/"+load.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := load.read()
				if err != nil {
					b.Fatal(err)
				}
				if h.NumNodes() != g.NumNodes() {
					b.Fatalf("loaded %d nodes of %d", h.NumNodes(), g.NumNodes())
				}
			}
		})
	}
}
