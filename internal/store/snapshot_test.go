package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// testGraph builds a deterministic random graph with deletions (so slot
// free lists are non-trivial) on the given shard count.
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
		g.DeleteNode(graph.NodeID(rng.Intn(nodes)))
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
			// Slot parity: the next insertion must take the same slot.
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
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g := testGraph(t, 2, 100, 400)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip a byte in the last segment: CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Fatal("want CRC error for corrupt segment")
	}

	// Wrong magic.
	bad = append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := ReadSnapshot(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Fatal("want error for bad magic")
	}

	// Future version.
	bad = append([]byte(nil), good...)
	bad[8] = 99
	if _, err := ReadSnapshot(bytes.NewReader(bad), int64(len(bad))); err == nil {
		t.Fatal("want error for unknown version")
	}

	// Truncated file.
	if _, err := ReadSnapshot(bytes.NewReader(good[:len(good)/2]), int64(len(good)/2)); err == nil {
		t.Fatal("want error for truncated snapshot")
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
			b.Run(fmt.Sprintf("V=%d/%s", n, load.name), func(b *testing.B) {
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
}
