package incgraph

import (
	"net"

	"incgraph/internal/cluster"
)

// Distribution. A Cluster runs the sharded substrate across processes:
// shard worker processes each hold authoritative replicas of a subset of
// the graph's shards, and the coordinator drives a two-phase protocol
// over a length+CRC-framed RPC — phase 1 ships each shard's slice of the
// validated batch plan to the worker owning it, in parallel; phase 2 (the
// commit callback) logs and applies the batch locally — so the distributed
// application is byte-identical to the single-process one. Shard
// placement ships the per-shard snapshot segments of internal/store. The
// coordinator commits one batch at a time and is fail-stop: after a
// failed Apply every later one returns that failure. See internal/cluster
// for the protocol contract and doc.go "Distribution" for what is and is
// not replicated.

type (
	// Cluster is the coordinator side of a shard-worker deployment.
	Cluster = cluster.Coordinator
	// ClusterWorker owns a subset of shards behind the RPC protocol.
	ClusterWorker = cluster.Worker
	// ClusterLink is one worker connection handed to NewCluster.
	ClusterLink = cluster.Link
)

// NewCluster attaches the linked workers as shard workers of g,
// handshaking each (which resets it) and placing every shard round-robin.
// While the cluster is attached, the cluster commit path (Durable.Commit
// with ApplyOptions.Via, or Cluster.Apply directly) must be the only
// mutation path of g; a standby feed is fed from the commit callback,
// which runs under the coordinator mutex in commit order.
func NewCluster(g *Graph, links []ClusterLink) (*Cluster, error) {
	return cluster.NewCoordinator(g, links)
}

// NewClusterWorker returns an empty shard worker; serve it with
// ClusterWorker.Serve on a listener (or ServeConn on any connection). The
// coordinator's handshake sizes and populates it.
func NewClusterWorker() *ClusterWorker { return cluster.NewWorker() }

// DialClusterWorker connects to a worker's TCP address: one attempt,
// bounded by a 5 s timeout.
func DialClusterWorker(addr string) (ClusterLink, error) { return cluster.Dial(addr) }

// InProcessLinks starts n workers over buffered in-memory pipes — the
// deterministic transport used by tests and benchmarks — and returns
// links ready for NewCluster. stop tears the serving goroutines down.
func InProcessLinks(n int) (links []ClusterLink, workers []*ClusterWorker, stop func()) {
	return cluster.InProcess(n)
}

// ListenCluster is a convenience for worker processes: listen on addr and
// return the listener (so the caller can log the bound address) for
// ClusterWorker.Serve.
func ListenCluster(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
