package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"incgraph/internal/graph"
)

// Shard parcels: the segment-streaming half of the snapshot format. A
// parcel is one shard's snapshot segment made self-contained — a label
// table restricted to the labels actually present on the shard, followed
// by the segment body in the exact encoding WriteSnapshot uses — so a
// single shard can be shipped between processes (cluster shard placement)
// without dragging the whole snapshot along. Like snapshots, parcels are byte-deterministic:
// identical shard state produces identical parcels whichever process
// encoded it, which is what lets a coordinator verify a remote worker's
// copy by comparing parcel bytes.
//
// # Format
//
//	uvarint labelCount, then per label: uvarint byte length + bytes
//	        (sorted by string; segment node records reference labels by
//	        position in this table)
//	segment body, exactly as in the snapshot format (see package doc)
//
// Integrity framing (length, CRC) is the transport's job — the cluster
// RPC layer frames every message the same way the WAL frames records — so
// parcels carry no checksum of their own.

// EncodeShardParcel serializes shard s of g as a self-contained parcel.
// The graph must be read-shareable for the duration; distinct shards may
// be encoded concurrently.
func EncodeShardParcel(g *graph.Graph, s int) ([]byte, error) {
	if s < 0 || s >= g.NumShards() {
		return nil, fmt.Errorf("store: EncodeShardParcel: shard %d out of range [0,%d)", s, g.NumShards())
	}
	seen := make(map[graph.LabelID]struct{})
	g.ShardNodes(s, func(_ graph.NodeID, lid graph.LabelID) bool {
		seen[lid] = struct{}{}
		return true
	})
	labels := make([]string, 0, len(seen))
	for lid := range seen {
		labels = append(labels, graph.LabelOf(lid))
	}
	sort.Strings(labels)
	labelIdx := make(map[graph.LabelID]uint64, len(labels))
	buf := binary.AppendUvarint(nil, uint64(len(labels)))
	for i, l := range labels {
		id, ok := graph.LabelIDOf(l)
		if !ok {
			return nil, fmt.Errorf("store: EncodeShardParcel: label %q not interned", l)
		}
		labelIdx[id] = uint64(i)
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	seg, err := encodeSegment(g, s, labelIdx)
	if err != nil {
		return nil, err
	}
	return append(buf, seg...), nil
}

// DecodeShardParcel parses a parcel into the ShardState of shard s,
// interning the carried labels into this process's table. The result feeds
// graph.LoadShard.
func DecodeShardParcel(buf []byte, s int) (graph.ShardState, error) {
	var st graph.ShardState
	off := 0
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	nLabels, ok := uvarint()
	if !ok || nLabels > uint64(len(buf)) {
		return st, fmt.Errorf("%w: parcel: bad label count", ErrBadSnapshot)
	}
	labels := make([]graph.LabelID, nLabels)
	for i := range labels {
		l, ok := uvarint()
		if !ok || l > uint64(len(buf)-off) {
			return st, fmt.Errorf("%w: parcel: truncated label table", ErrBadSnapshot)
		}
		labels[i] = graph.InternLabel(string(buf[off : off+int(l)]))
		off += int(l)
	}
	return decodeSegment(buf[off:], s, &snapHeader{labels: labels})
}
