package incgraph

import (
	"bytes"
	"net"
	"time"

	"incgraph/internal/cluster"
	"incgraph/internal/store"
)

// High availability. The cluster of cluster.go gains three HA layers, all
// re-exported here:
//
//   - Log shipping: a coordinator built with WithReplication(ReplAsync)
//     or WithReplication(ReplQuorum) streams every committed batch's WAL
//     record to the workers owning the touched shards; each worker keeps a
//     per-shard replica log whose sequence chain detects missed records
//     and heals them by parcel resync.
//   - Standby failover: a ClusterHub next to the primary feeds committed
//     records to ClusterStandby processes (a handshake that registers the
//     connection and then snapshots under the owner's commit lock, + tail).
//     Heartbeats double as the primary's lease; on expiry or a severed
//     feed the standby's owner promotes by attaching a new coordinator at
//     a higher fencing term, which the workers enforce — a deposed
//     coordinator's late commits are rejected as fenced.
//   - Replica reads: ClusterReplStates asks any worker, without a
//     coordinator session, which generation each of its shards has proven
//     current — the currency check behind serving queries from replicas.
//
// A FaultScript wraps any of these connections in a seeded, scriptable
// frame shim (drop/delay/duplicate/sever) so every failure mode above is
// exercised deterministically in tests and chaos drills.

type (
	// ReplPolicy selects how Apply waits on replica acknowledgements.
	ReplPolicy = cluster.ReplPolicy
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
	// ClusterDialer dials workers with per-attempt timeouts and capped
	// exponential backoff with jitter; its Retries counter surfaces in
	// Cluster.Stats.
	ClusterDialer = cluster.Dialer
	// ReplState is one shard's replication position on a worker: the last
	// replicated sequence and the generation it proves.
	ReplState = cluster.ReplState

	// FaultScript deterministically injects faults into wrapped
	// connections; FaultRule matches frames by direction, index, and
	// message type.
	FaultScript = cluster.FaultScript
	FaultRule   = cluster.FaultRule
	FaultDir    = cluster.FaultDir
	FaultAction = cluster.FaultAction
)

// Replication policies for WithReplication.
const (
	ReplOff    = cluster.ReplOff
	ReplAsync  = cluster.ReplAsync
	ReplQuorum = cluster.ReplQuorum
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

// ErrClusterFenced matches (errors.Is) commits refused because a worker
// enforced a higher fencing term: this coordinator was deposed by a
// promoted standby. Nothing was applied; the caller should redirect
// clients to the new primary rather than retry.
var ErrClusterFenced = cluster.ErrFenced

// NewClusterHub returns a hub ready to accept standby connections; serve
// each on ClusterHub.ServeConn and call Feed from the serialized commit path,
// under the lock the Snapshot callback takes (a library coordinator's
// WithOnCommit hook is one such path; incgraphd feeds from its apply hook).
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
	FaultMsgHello     = cluster.FaultMsgHello
	FaultMsgPlace     = cluster.FaultMsgPlace
	FaultMsgApply     = cluster.FaultMsgApply
	FaultMsgReplicate = cluster.FaultMsgReplicate
	FaultMsgTail      = cluster.FaultMsgTail
	FaultMsgFeed      = cluster.FaultMsgFeed
	FaultMsgPing      = cluster.FaultMsgPing
)

// ClusterReplStates asks the worker on conn for its per-shard replication
// state. It needs no coordinator session, so any process can check which
// shards a worker has proven current — the gate for routing reads to
// replicas.
func ClusterReplStates(conn net.Conn, timeout time.Duration) (map[int]ReplState, error) {
	return cluster.FetchReplStates(conn, timeout)
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

// DecodeSnapshot reconstructs a graph from EncodeSnapshot bytes, exactly —
// slot allocator state included, so engines built on it behave
// byte-identically to ones built on the never-serialized graph.
func DecodeSnapshot(data []byte) (*Graph, error) {
	return store.ReadSnapshot(bytes.NewReader(data), int64(len(data)))
}
