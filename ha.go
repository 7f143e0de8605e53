package incgraph

import (
	"bytes"

	"incgraph/internal/cluster"
	"incgraph/internal/store"
)

// High availability. The cluster of cluster.go gains one replication
// path, re-exported here, plus the drills that exercise it:
//
//   - Standby failover: a ClusterHub next to the primary feeds committed
//     records to ClusterStandby processes (a handshake that registers the
//     connection and then snapshots under the owner's commit lock, + tail),
//     each of which keeps its own copy of the state. Heartbeats double as
//     the primary's lease; on expiry or a severed feed the standby's owner
//     promotes by attaching a new coordinator at a higher fencing term,
//     which re-places every shard on the workers from the standby's graph
//     and which the workers enforce — a deposed coordinator's late commits
//     are rejected as fenced.
//   - Drills: a FaultScript wraps any of these connections in a seeded,
//     scriptable frame shim (drop/delay/duplicate/sever) so every failure
//     mode above is exercised deterministically in tests and chaos drills.

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

	// FaultScript deterministically injects faults into wrapped
	// connections; FaultRule matches frames by direction, index, and
	// message type.
	FaultScript = cluster.FaultScript
	FaultRule   = cluster.FaultRule
	FaultDir    = cluster.FaultDir
	FaultAction = cluster.FaultAction
)

// Fault directions and actions for FaultRule.
const (
	FaultOut   = cluster.FaultOut
	FaultIn    = cluster.FaultIn
	FaultDrop  = cluster.FaultDrop
	FaultDelay = cluster.FaultDelay
	FaultDup   = cluster.FaultDup
	FaultSever = cluster.FaultSever
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

// NewFaultScript builds a deterministic fault-injection script from rules;
// wrap connections (or links) with Wrap/WrapLink.
func NewFaultScript(seed int64, rules ...FaultRule) *FaultScript {
	return cluster.NewFaultScript(seed, rules...)
}

// Fault message selectors for FaultRule.Msg.
const (
	FaultMsgHello = cluster.FaultMsgHello
	FaultMsgPlace = cluster.FaultMsgPlace
	FaultMsgApply = cluster.FaultMsgApply
	FaultMsgTail  = cluster.FaultMsgTail
	FaultMsgFeed  = cluster.FaultMsgFeed
	FaultMsgPing  = cluster.FaultMsgPing
)

// EncodeSnapshot serializes g to canonical snapshot bytes — the natural
// payload for ClusterHubOptions.Snapshot.
func EncodeSnapshot(g *Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reconstructs a graph from EncodeSnapshot bytes, exactly —
// slot allocator state included, so engines built on it behave
// byte-identically to ones built on the never-serialized graph.
func DecodeSnapshot(data []byte) (*Graph, error) {
	return store.ReadSnapshot(bytes.NewReader(data), int64(len(data)))
}
