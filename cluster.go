package incgraph

import (
	"net"
	"time"

	"incgraph/internal/cluster"
)

// Distribution. A Cluster runs the sharded substrate across processes:
// shard worker processes each hold authoritative replicas of a subset of
// the graph's shards, and the coordinator drives a two-phase protocol
// over a length+CRC-framed RPC — phase 1 ships each shard's slice of the
// validated batch plan to the worker owning it, in parallel; phase 2 (the
// commit callback) logs and applies the batch locally — so the distributed
// application is byte-identical to the single-process one. Shard
// placement and resync ship the per-shard snapshot segments of
// internal/store. The coordinator commits one batch at a time. See
// internal/cluster for the protocol contract and doc.go "Distribution" for
// what is and is not replicated.

type (
	// Cluster is the coordinator side of a shard-worker deployment.
	Cluster = cluster.Coordinator
	// ClusterWorker owns a subset of shards behind the RPC protocol.
	ClusterWorker = cluster.Worker
	// ClusterLink is one worker connection handed to NewCluster.
	ClusterLink = cluster.Link
)

// ClusterOption configures NewCluster.
type ClusterOption func(*cluster.CoordinatorOptions)

// WithClusterTerm sets the coordinator's fencing term. Workers remember
// the highest term seen; a promoted standby attaches at a higher term,
// fencing every session of the coordinator it replaced.
func WithClusterTerm(term uint64) ClusterOption {
	return func(o *cluster.CoordinatorOptions) { o.Term = term }
}

// WithCallTimeout overrides the per-RPC base deadline (default 60s); it
// still scales with request size.
func WithCallTimeout(d time.Duration) ClusterOption {
	return func(o *cluster.CoordinatorOptions) { o.CallTimeout = d }
}

// NewCluster attaches the linked workers as shard workers of g,
// handshaking each and placing every shard round-robin. Options set the
// fencing term and the per-RPC deadline. While the cluster is attached,
// the cluster commit path (Durable.Commit with ApplyOptions.Via, or
// Cluster.Apply directly) must be the only mutation path of g; a standby
// feed is fed from the commit callback, which runs under the coordinator
// mutex in commit order.
func NewCluster(g *Graph, links []ClusterLink, opts ...ClusterOption) (*Cluster, error) {
	var o cluster.CoordinatorOptions
	for _, opt := range opts {
		opt(&o)
	}
	return cluster.NewCoordinator(g, links, o)
}

// NewClusterWorker returns an empty shard worker; serve it with
// ClusterWorker.Serve on a listener (or ServeConn on any connection). The
// coordinator's handshake sizes and populates it.
func NewClusterWorker() *ClusterWorker { return cluster.NewWorker() }

// DialClusterWorker connects to a worker's TCP address, returning a
// redialable link: a worker that crashes and restarts on the same address
// is reattached and rebuilt from shipped segments automatically.
func DialClusterWorker(addr string) (ClusterLink, error) { return cluster.Dial(addr) }

// InProcessLinks starts n workers over synchronous in-memory pipes — the
// deterministic transport used by tests and benchmarks — and returns
// links ready for NewCluster. stop tears the serving goroutines down.
func InProcessLinks(n int) (links []ClusterLink, workers []*ClusterWorker, stop func()) {
	return cluster.InProcess(n)
}

// ListenCluster is a convenience for worker processes: listen on addr and
// return the listener (so the caller can log the bound address) for
// ClusterWorker.Serve.
func ListenCluster(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
