// Package store is the durability subsystem: versioned per-shard binary
// snapshots of the graph substrate, a CRC-framed write-ahead log of ΔG
// batches, and the Store that composes the two into checkpoint/recover
// cycles under a crash-safe directory layout.
//
// # Snapshot format (.snap, version 2)
//
// A snapshot is one file: a manifest header followed by one binary segment
// per shard. All fixed-width integers are little-endian; segment bodies
// use varint/uvarint coding with delta-compressed adjacency.
//
//	magic     [8]byte  "incgsnp1"
//	version   uint32   (currently 2; a reader rejects any other)
//	shards    uint32   (power of two, ≤ graph.MaxShards)
//	gen       uint64   mutation generation at snapshot time
//	nodes     uint64   |V| (load-time integrity check)
//	edges     uint64   |E| (load-time integrity check)
//	labels    uint32 count, then per label: uint32 byte length + bytes.
//	          Node records reference labels by position in this table, so
//	          snapshots are portable across processes whose global intern
//	          tables assigned different LabelIDs.
//	directory per shard: uint64 offset, uint64 length, uint32 CRC-32 (IEEE)
//	segments  shard 0..P-1, each covered by its directory CRC
//
// Each segment encodes its shard in the stable order of
// graph.ExportShard — nodes ascending by ID, adjacency ascending — so
// Equal graphs at one shard count produce byte-identical snapshots,
// whatever history built them:
//
//	uvarint nodeCount
//	per node: varint id, uvarint label index,
//	          uvarint out-degree + delta-coded ids,
//	          uvarint in-degree  + delta-coded ids
//
// No slot is stored (version 1 stored them, and is rejected): a load
// issues each shard's slots in ID order.
//
// Segments are independent: WriteSnapshot encodes them in parallel, and
// ReadSnapshot loads them in parallel (graph.ParallelFor over shards, one
// graph.LoadShard per segment) before a serial graph.FinishLoad rebuilds
// the global label index. The load restores nodes, labels, edges and the
// generation, so every downstream engine behaves byte-identically to one
// built on the never-serialized graph. The per-shard segment is the unit
// the cluster coordinator ships to a worker (parcel.go).
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"incgraph/internal/graph"
)

// snapMagic identifies snapshot files; the trailing "1" is the major
// format family, the version field the revision.
var snapMagic = [8]byte{'i', 'n', 'c', 'g', 's', 'n', 'p', '1'}

// SnapshotVersion is the current snapshot format revision.
const SnapshotVersion = 2

// ErrBadSnapshot reports a snapshot that cannot be decoded: wrong magic,
// unknown version, or corruption the CRCs caught.
var ErrBadSnapshot = errors.New("store: bad snapshot")

// WriteSnapshot serializes g as a version-2 snapshot. The graph must be
// read-shareable for the duration (no concurrent mutation); segments are
// encoded in parallel across g.Parallelism() workers.
func WriteSnapshot(w io.Writer, g *graph.Graph) error {
	p := g.NumShards()

	// Label table: labels present in g, sorted by string for determinism;
	// LabelID → table position for the per-node references.
	labels := make([]string, 0, 16)
	g.Labels(func(label string, _ int) bool {
		labels = append(labels, label)
		return true
	})
	sort.Strings(labels)
	labelIdx := make(map[graph.LabelID]uint64, len(labels))
	for i, l := range labels {
		id, ok := graph.LabelIDOf(l)
		if !ok {
			return fmt.Errorf("store: label %q not interned", l)
		}
		labelIdx[id] = uint64(i)
	}

	// Encode every shard segment, in parallel.
	segs := make([][]byte, p)
	errs := make([]error, p)
	graph.ParallelFor(g.Parallelism(), p, func(_, s int) {
		segs[s], errs[s] = encodeSegment(g, s, labelIdx)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Header + label table + directory.
	var hdr []byte
	hdr = append(hdr, snapMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, SnapshotVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(p))
	hdr = binary.LittleEndian.AppendUint64(hdr, g.Generation())
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.NumNodes()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.NumEdges()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(labels)))
	for _, l := range labels {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(l)))
		hdr = append(hdr, l...)
	}
	offset := uint64(len(hdr) + p*20) // directory entry: 8+8+4 bytes
	for s := 0; s < p; s++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, offset)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(segs[s])))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(segs[s]))
		offset += uint64(len(segs[s]))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for s := 0; s < p; s++ {
		if _, err := w.Write(segs[s]); err != nil {
			return err
		}
	}
	return nil
}

// encodeSegment serializes shard s using the stable export order.
func encodeSegment(g *graph.Graph, s int, labelIdx map[graph.LabelID]uint64) ([]byte, error) {
	st := g.ExportShard(s)
	buf := make([]byte, 0, 16+24*len(st.Nodes))
	buf = binary.AppendUvarint(buf, uint64(len(st.Nodes)))
	for _, n := range st.Nodes {
		li, ok := labelIdx[n.Label]
		if !ok {
			return nil, fmt.Errorf("store: node %d: label id %d missing from table", n.ID, n.Label)
		}
		buf = binary.AppendVarint(buf, int64(n.ID))
		buf = binary.AppendUvarint(buf, li)
		buf = appendAdjacency(buf, n.Out)
		buf = appendAdjacency(buf, n.In)
	}
	return buf, nil
}

// appendAdjacency delta-codes an ascending id list: varint first element,
// uvarint gaps after.
func appendAdjacency(buf []byte, vs []graph.NodeID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	prev := int64(0)
	for i, v := range vs {
		if i == 0 {
			buf = binary.AppendVarint(buf, int64(v))
		} else {
			buf = binary.AppendUvarint(buf, uint64(int64(v)-prev))
		}
		prev = int64(v)
	}
	return buf
}

// snapHeader is the decoded manifest of a snapshot file.
type snapHeader struct {
	shards   int
	gen      uint64
	nodes    uint64
	edges    uint64
	labels   []graph.LabelID // table position → interned id (this process)
	segments []segmentInfo
}

type segmentInfo struct {
	offset uint64
	length uint64
	crc    uint32
}

// readSnapHeader parses and validates the manifest.
func readSnapHeader(r io.ReaderAt, size int64) (*snapHeader, error) {
	fixed := make([]byte, 8+4+4+8+8+8+4)
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadSnapshot, err)
	}
	if [8]byte(fixed[:8]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := binary.LittleEndian.Uint32(fixed[8:]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (have %d)", ErrBadSnapshot, v, SnapshotVersion)
	}
	h := &snapHeader{
		shards: int(binary.LittleEndian.Uint32(fixed[12:])),
		gen:    binary.LittleEndian.Uint64(fixed[16:]),
		nodes:  binary.LittleEndian.Uint64(fixed[24:]),
		edges:  binary.LittleEndian.Uint64(fixed[32:]),
	}
	if h.shards < 1 || h.shards > graph.MaxShards || h.shards&(h.shards-1) != 0 {
		return nil, fmt.Errorf("%w: invalid shard count %d", ErrBadSnapshot, h.shards)
	}
	nLabels := int(binary.LittleEndian.Uint32(fixed[40:]))
	// Each label entry is at least 4 bytes (its length field); the header
	// has no CRC of its own, so bound the count by the file size before
	// allocating anything proportional to it.
	if int64(nLabels) > size/4 {
		return nil, fmt.Errorf("%w: implausible label count %d", ErrBadSnapshot, nLabels)
	}
	// Stream the variable tail (label table + directory) instead of
	// slurping the file: segments are read separately, per shard.
	pos := int64(len(fixed))
	br := bufio.NewReader(io.NewSectionReader(r, pos, size-pos))
	var scratch [20]byte
	read := func(n int) ([]byte, error) {
		if _, err := io.ReadFull(br, scratch[:n]); err != nil {
			return nil, fmt.Errorf("%w: truncated manifest", ErrBadSnapshot)
		}
		return scratch[:n], nil
	}
	h.labels = make([]graph.LabelID, nLabels)
	for i := 0; i < nLabels; i++ {
		b, err := read(4)
		if err != nil {
			return nil, err
		}
		l := int(binary.LittleEndian.Uint32(b))
		if int64(l) > size {
			return nil, fmt.Errorf("%w: implausible label length %d", ErrBadSnapshot, l)
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("%w: truncated label table", ErrBadSnapshot)
		}
		h.labels[i] = graph.InternLabel(string(name))
	}
	h.segments = make([]segmentInfo, h.shards)
	for s := 0; s < h.shards; s++ {
		b, err := read(20)
		if err != nil {
			return nil, err
		}
		h.segments[s] = segmentInfo{
			offset: binary.LittleEndian.Uint64(b),
			length: binary.LittleEndian.Uint64(b[8:]),
			crc:    binary.LittleEndian.Uint32(b[16:]),
		}
		// offset+length can wrap around uint64; compare without adding.
		if seg := h.segments[s]; seg.length > uint64(size) || seg.offset > uint64(size)-seg.length {
			return nil, fmt.Errorf("%w: segment %d extends past file end", ErrBadSnapshot, s)
		}
	}
	return h, nil
}

// ReadSnapshot decodes a snapshot into a fresh graph with the snapshot's
// shard count, loading segments in parallel. The result is Equal to the
// serialized graph and carries its mutation generation.
func ReadSnapshot(r io.ReaderAt, size int64) (*graph.Graph, error) {
	h, err := readSnapHeader(r, size)
	if err != nil {
		return nil, err
	}
	g := graph.NewSharded(h.shards)
	if g.NumShards() != h.shards {
		return nil, fmt.Errorf("%w: shard count %d not constructible", ErrBadSnapshot, h.shards)
	}
	errs := make([]error, h.shards)
	graph.ParallelFor(g.Parallelism(), h.shards, func(_, s int) {
		errs[s] = loadSegment(r, g, s, h)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := g.FinishLoad(h.gen); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if uint64(g.NumNodes()) != h.nodes || uint64(g.NumEdges()) != h.edges {
		return nil, fmt.Errorf("%w: manifest says |V|=%d |E|=%d, loaded |V|=%d |E|=%d",
			ErrBadSnapshot, h.nodes, h.edges, g.NumNodes(), g.NumEdges())
	}
	return g, nil
}

// loadSegment reads, checks and decodes one shard segment into g.
func loadSegment(r io.ReaderAt, g *graph.Graph, s int, h *snapHeader) error {
	seg := h.segments[s]
	buf := make([]byte, seg.length)
	if _, err := r.ReadAt(buf, int64(seg.offset)); err != nil {
		return fmt.Errorf("%w: segment %d: %v", ErrBadSnapshot, s, err)
	}
	if crc := crc32.ChecksumIEEE(buf); crc != seg.crc {
		return fmt.Errorf("%w: segment %d: CRC mismatch (%08x != %08x)", ErrBadSnapshot, s, crc, seg.crc)
	}
	st, err := decodeSegment(buf, s, h)
	if err != nil {
		return err
	}
	if err := g.LoadShard(s, st); err != nil {
		return fmt.Errorf("%w: segment %d: %v", ErrBadSnapshot, s, err)
	}
	return nil
}

// segReader walks a segment buffer with truncation-checked varint reads.
type segReader struct {
	buf []byte
	off int
	s   int
}

func (sr *segReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(sr.buf[sr.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: segment %d: truncated at %d", ErrBadSnapshot, sr.s, sr.off)
	}
	sr.off += n
	return v, nil
}

func (sr *segReader) varint() (int64, error) {
	v, n := binary.Varint(sr.buf[sr.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: segment %d: truncated at %d", ErrBadSnapshot, sr.s, sr.off)
	}
	sr.off += n
	return v, nil
}

// decodeSegment parses one shard segment body.
func decodeSegment(buf []byte, s int, h *snapHeader) (graph.ShardState, error) {
	sr := &segReader{buf: buf, s: s}
	var st graph.ShardState
	nNodes, err := sr.uvarint()
	if err != nil {
		return st, err
	}
	if nNodes > uint64(len(buf)) {
		return st, fmt.Errorf("%w: segment %d: implausible node count %d", ErrBadSnapshot, s, nNodes)
	}
	st.Nodes = make([]graph.ShardNodeState, nNodes)
	for i := range st.Nodes {
		id, err := sr.varint()
		if err != nil {
			return st, err
		}
		li, err := sr.uvarint()
		if err != nil {
			return st, err
		}
		if li >= uint64(len(h.labels)) {
			return st, fmt.Errorf("%w: segment %d: label index %d out of table", ErrBadSnapshot, s, li)
		}
		out, err := readAdjacency(sr)
		if err != nil {
			return st, err
		}
		in, err := readAdjacency(sr)
		if err != nil {
			return st, err
		}
		st.Nodes[i] = graph.ShardNodeState{ID: graph.NodeID(id), Label: h.labels[li], Out: out, In: in}
	}
	if sr.off != len(buf) {
		return st, fmt.Errorf("%w: segment %d: %d trailing bytes", ErrBadSnapshot, s, len(buf)-sr.off)
	}
	return st, nil
}

// readAdjacency decodes one delta-coded id list.
func readAdjacency(sr *segReader) ([]graph.NodeID, error) {
	n, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(sr.buf)) {
		return nil, fmt.Errorf("%w: segment %d: implausible degree %d", ErrBadSnapshot, sr.s, n)
	}
	vs := make([]graph.NodeID, n)
	first, err := sr.varint()
	if err != nil {
		return nil, err
	}
	vs[0] = graph.NodeID(first)
	prev := first
	for i := 1; i < int(n); i++ {
		gap, err := sr.uvarint()
		if err != nil {
			return nil, err
		}
		prev += int64(gap)
		vs[i] = graph.NodeID(prev)
	}
	return vs, nil
}

// WriteSnapshotFile writes a snapshot atomically through fsys (nil means
// the real filesystem): to a temp file in the same directory, fsynced,
// then renamed over path.
func WriteSnapshotFile(fsys FS, path string, g *graph.Graph) error {
	fsys = fsOrOS(fsys)
	tmp, err := fsys.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp.Name(), path)
}

// ReadSnapshotFile loads a snapshot file.
func ReadSnapshotFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadSnapshot(f, info.Size())
}

// IsSnapshotFile sniffs whether path begins with the snapshot magic.
func IsSnapshotFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return false, nil // shorter than the magic: not a snapshot
	}
	return m == snapMagic, nil
}

// ReadGraphFile loads a graph from path, auto-detecting the format:
// snapshot files (by magic) load via ReadSnapshot, anything else parses as
// the line-oriented text format. The CLI tools accept either
// interchangeably.
func ReadGraphFile(path string) (*graph.Graph, error) {
	snap, err := IsSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	if snap {
		return ReadSnapshotFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}
