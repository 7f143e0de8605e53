package incgraph

import (
	"bytes"

	"incgraph/internal/cluster"
	"incgraph/internal/store"
)

// High availability. One replication path, re-exported here: a
// ClusterHub next to the primary feeds committed records to
// ClusterStandby processes (a handshake that registers the connection and
// then snapshots under the owner's commit lock, + tail), each of which
// keeps its own copy of the state. Heartbeats double as the primary's
// lease; on expiry or a severed feed the standby's owner promotes its own
// copy to primary at term+1. Nothing fences the deposed primary, and no
// shard worker takes part: a library coordinator is fail-stop (cluster.go).

type (
	// ClusterHub feeds committed records to attached standbys.
	ClusterHub = cluster.Hub
	// ClusterHubOptions configures a hub: term, snapshot callback,
	// heartbeat interval.
	ClusterHubOptions = cluster.HubOptions
	// ClusterStandby tails a hub and tracks the primary's lease.
	ClusterStandby = cluster.Standby
	// ClusterStandbyOptions configures a standby: load/apply callbacks and
	// the lease TTL.
	ClusterStandbyOptions = cluster.StandbyOptions
)

// ErrLeaseExpired reports a standby that outlived its primary's lease.
var ErrLeaseExpired = cluster.ErrLeaseExpired

// NewClusterHub returns a hub ready to accept standby connections; serve
// each on ClusterHub.ServeConn and call Feed from the serialized commit path,
// under the lock the Snapshot callback takes (the commit callback a library
// caller hands Cluster.Apply is one such path; incgraphd feeds from its
// apply hook).
func NewClusterHub(opts ClusterHubOptions) *ClusterHub { return cluster.NewHub(opts) }

// NewClusterStandby returns a standby tail; drive it with Run over a
// connection to the primary's hub.
func NewClusterStandby(opts ClusterStandbyOptions) *ClusterStandby {
	return cluster.NewStandby(opts)
}

// EncodeSnapshot serializes g to canonical snapshot bytes — the natural
// payload for ClusterHubOptions.Snapshot.
func EncodeSnapshot(g *Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reconstructs a graph from EncodeSnapshot bytes: nodes,
// labels, edges, shard count and generation, so engines built on it behave
// byte-identically to ones built on the never-serialized graph.
func DecodeSnapshot(data []byte) (*Graph, error) {
	return store.ReadSnapshot(bytes.NewReader(data), int64(len(data)))
}
