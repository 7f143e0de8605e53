// Package incgraph is a Go implementation of the incremental graph
// computations of Fan, Hu & Tian, "Incremental Graph Computations: Doable
// and Undoable" (SIGMOD 2017).
//
// The paper shows that the incremental problems for four common graph query
// classes — regular path queries (RPQ), strongly connected components
// (SCC), keyword search (KWS) and subgraph isomorphism (ISO) — are
// unbounded: no incremental algorithm can run in time polynomial in the
// size of the changes alone. It then shows the situation is not hopeless,
// via two weaker-but-practical guarantees, and this library implements all
// of the corresponding algorithms:
//
//   - KWS and ISO are localizable: IncKWS and IncISO touch only the
//     d_Q-neighborhood of the updated edges (Section 4).
//   - RPQ and SCC are relatively bounded: IncRPQ and IncSCC touch only the
//     affected area AFF of their batch algorithms RPQ_NFA and Tarjan
//     (Section 5).
//
// # Performance substrate
//
// internal/graph is built for the hot paths of the incremental engines:
//
//   - Node labels are interned process-wide into uint32 LabelIDs
//     (InternLabel / LabelIDOf / LabelOf) and every graph maintains an
//     inverted label→sorted-nodes index, so NodesWithLabel is an index
//     lookup, not an O(|V|) scan, and the VF2/KWS/RPQ inner loops compare
//     integer IDs instead of strings. Invariant: relabeling a node
//     (AddNode on an existing ID) updates the inverted index atomically
//     with the label.
//   - Node records live in one table indexed by each node's dense slot,
//     and a NodeIndex maps NodeID → slot, so a node lookup is an array
//     read for the dense IDs every loader and generator issues (a map
//     probe only for others). The node space is sharded: nodes hash into
//     a power-of-two number of partitions (Graph.SetShards, default sized
//     to the core count), and shard s issues the slots ≡ s (mod P), so its
//     nodes are a stride of the table; cross-shard edges are recorded on
//     both endpoint shards. A validated batch compiles into per-shard
//     effects with no cross-shard writes — what the multi-process runtime
//     ships to its shard workers — and snapshots are cut along the same
//     lines. Nodes are never deleted, so shard s's nodes hold its local
//     slots 0…n−1; a slot is private to the process, and neither a
//     snapshot nor a shard parcel carries one.
//   - Answers that are expensive to materialize but stable between
//     updates — Graph.EdgesSorted, KWSIndex.MatchRoots,
//     RPQEngine.Matches, ISOIndex.Matches — are memoized against the
//     graph's mutation generation (Graph.Generation): repeated reads
//     between updates are O(1), and any mutation implicitly invalidates
//     them. The returned slices are shared; treat them as read-only.
//   - Adjacency is one ascending []NodeID per node and direction, at every
//     degree, and so is each label class of the inverted label index.
//     Iteration is a cache-friendly linear scan in NodeID order, so every
//     traversal visits in the same order on every run, and
//     SuccessorsSorted returns the storage itself — allocation-free, but
//     borrowed: valid only until the next mutation of that node.
//   - The traversal kernels (BFSFrom, ReverseBFSFrom, ForEachWithin,
//     Reaches, UndirectedComponents) run on buffers from a lock-free
//     worker-keyed scratch pool: an epoch-stamped visited array over dense
//     node slots plus reusable queues, so a warm graph traverses without
//     allocating, and concurrent or nested traversals each check out their
//     own buffer.
//
// # Concurrency and parallelism
//
// The engine is multi-core end to end, built on one contract: mutating a
// graph (AddNode, AddEdge, Apply, ...) requires exclusive access, while
// between mutations the graph is read-shareable: any number of goroutines
// may read and traverse it concurrently, at any parallelism and behind
// every engine, with no preparation step.
//
// On top of that split, the batch builds can fan out — NewKWS per keyword
// and per node, NewRPQ per source node, NewISO/FindMatches over partitioned
// VF2 candidate seeds — and the incremental repairs of KWS, RPQ and ISO,
// which run against the graph after ΔG has been applied to it, partition
// their work (affected keywords, affected sources, anchored insertions)
// the same way. The fan-out pays
// for itself: every such loop runs on the calling goroutine, which offers
// the work to one helper and goes on without waiting for it; a helper that
// arrives while iterations are still unclaimed takes some and brings in
// the next helper, one that arrives too late leaves again. A small commit
// — most commits — is over before help arrives and its goroutine waits
// for nobody; builds, snapshot loads and the occasional long repair widen
// to the worker budget within a few thread wake-ups. Per-worker results
// merge deterministically, so answers and deltas are byte-identical to a
// sequential run at any worker or shard count, however wide each loop
// happened to run.
//
// KWS and ISO additionally route each batch through a cost model
// (internal/cost): when the predicted affected area makes the incremental
// repair costlier than the batch algorithm — the regime past the paper's
// incremental/batch crossover — the repair falls back to recomputing from
// scratch on G ⊕ ΔG, diffing the match sets for the exact same Delta. The decision is a pure function of graph and batch statistics,
// never of worker or shard count.
//
// Graph.SetParallelism(n) caps how wide a loop may become (it never makes
// one wide); the default is runtime.GOMAXPROCS(0), and n = 1 forces fully
// sequential execution. An engine follows the budget of the graph it was
// built on; clones inherit the setting.
//
// # One graph, k repairs
//
// Every engine splits "ΔG arrives" in two (kws.Index, rpq.Engine,
// scc.State, iso.Index alike): advancing the graph from G to G ⊕ ΔG —
// normalize, validate, create nodes, apply — and Repair, which takes ΔG,
// assumes the graph has just made that move, and brings the auxiliary
// structures and the answer along, mutating nothing else. That is the
// paper's IncX(Q, G, Q(G), ΔG): G ⊕ ΔG is given, paid for once, and the
// algorithm is costed in |CHANGED| and |AFF|. All four already reasoned
// from the post-state graph (kws repairs kdist after the structural
// updates; rpq reads the new graph and recognises inserted edges to reason
// about the old one; iso's edge→matches index reads the same either side
// of the mutation; scc replays ΔG onto its own index-space mirror and
// never reads the graph's adjacency), so Apply — the standalone entry
// point, for an engine that owns its graph — is exactly "advance my graph,
// then Repair", one repair implementation with two callers. The other
// caller is Durable: engines built on its graph are repaired in place, so
// a commit with k engines validates and applies ΔG once, not k+1 times,
// and one graph is resident, not k+1. Nodes a batch created are recognised
// by each engine's own index (a NodeID its dense index does not know yet),
// and the kws cost model is fed the pre-state |V| and |E| on both paths,
// so verdicts, metered work and ΔO are identical whichever way an engine
// is driven.
//
// # Durability
//
// The maintained state survives restarts (internal/store, surfaced here
// as Durable):
//
//   - Snapshots. WriteSnapshot serializes the graph in a versioned binary
//     format, one independently-encoded segment per shard behind a
//     manifest header (shard count, generation, label table, per-segment
//     CRC-32). Segments encode and load in parallel, and a load restores
//     the graph — node set, labels, adjacency, mutation generation — so
//     engines built on a loaded graph behave byte-identically to engines
//     built on the original. Slots are not stored: the load issues them
//     afresh, and no answer depends on one.
//     The format is versioned by a magic+version header; readers reject
//     unknown versions rather than guessing.
//   - Write-ahead log. Durable.Commit, the one way to write, validates
//     each batch ΔG, appends it to a length+CRC-framed log, and only then
//     applies it to the graph — once — and has every attached engine
//     repair against the result (an engine attached on a private clone
//     applies it to that copy itself). The fsync policy is explicit:
//     SyncAlways (the default) makes every acknowledged batch survive
//     power failure; SyncNone trades bounded loss for append throughput.
//   - Recovery. OpenDurable loads the snapshot and applies the WAL's
//     valid record prefix to it in log order, so the graph, its
//     generation and the WAL sequence come back as logged; the caller
//     then builds its engines once on the recovered graph, as on a fresh
//     store. A repair's answer equals a from-scratch build's on the same
//     graph, so every answer (Maintained.WriteAnswer) is byte-identical to
//     the uninterrupted run, at any worker or shard count. A torn or corrupt
//     WAL tail — the signature of a crash mid-append — is truncated,
//     never fatal.
//   - Checkpoints. Checkpoint folds the log into a fresh snapshot under a
//     new epoch and commits the pair via an atomically-renamed manifest;
//     a crash at any instant leaves either the old pair or the new pair
//     fully intact.
//
// cmd/incgraphd is the long-lived server built on this subsystem: it
// ingests "+/-" update streams over a line protocol (internal/wire states
// it, writes and parses its replies, and is its one client) and checkpoints on
// demand or past a WAL-size threshold. It is one process and holds one
// graph — primary, standby and crash recovery all build the engines on
// the store's graph and attach them in place — and serves
// rpq/kws/scc/iso answers the way the paper defines their maintenance, as
// Q(G) ⊕ ΔO: every commit
// publishes, with one atomic pointer store, an immutable view holding per
// class the answer's rows as of some earlier commit and the engines' ΔO of
// every commit since (Maintained's Rows and LastDelta give them;
// MergeRows is the ⊕). Reads load that pointer and take no lock — they
// never wait for a commit, see one whole generation and say which ("ok
// CLASS SIZE gen=G") — and read no engine state after start-up: an engine
// only orders and renders their rows (CompareRows, AppendRow).
// TestDaemonHistory and TestLinearizableStandbyReads (cmd/incgraphd) pin it against the same seeded history and from-scratch
// oracle as TestHistory (internal/history): staged and committed over the wire to a daemon, a
// daemon at four shards and a promoted standby while readers read every
// class, each reply must be what from-scratch builds answer at the step
// its generation ended, never older than an acked commit, and never older
// than its connection's last. The CLI tools accept .snap files anywhere a text graph
// is accepted (LoadGraphFile sniffs the format).
//
// # Distribution
//
// The library can run the sharded substrate across processes, along the
// boundary it was sharded on (internal/cluster, surfaced here as
// Cluster/ClusterWorker). The daemon does not: cmd/incgraphd is one
// process, and the coordinator is kept for perf/'s measurement of what the
// distributed hop costs.
//
//   - Coordinator/worker contract. Shard worker processes each hold
//     authoritative replicas of a subset of the graph's shards — node
//     records and adjacency, nothing graph-global — behind
//     a length+CRC-framed RPC protocol (the WAL's frame: one byte codec,
//     in internal/store, frames and reads every binary format). The
//     coordinator keeps the authoritative full graph: batches are
//     validated and planned there, the engines and the Durable live
//     there, and shard placement ships the snapshot's per-shard segments
//     (the wire format the store was designed around). Placement is
//     round-robin, done once when the coordinator attaches (its hello
//     resets each worker), and fixed for the coordinator's lifetime.
//   - Determinism. A distributed commit is a two-phase protocol over the
//     batch's validated, shard-partitioned plan: phase 1 ships each
//     shard's slice of the plan to its owning worker, in parallel; phase 2
//     — the commit callback — logs and applies the batch locally, once the
//     workers' edge deltas have been cross-checked against the plan. The result (graph bytes,
//     engine deltas, canonical answers) is byte-identical to the
//     single-process application; TestHistory pins it: its "cluster" shape
//     (workers=2) reports the summaries, ΔO rows, answers and metered work
//     of every class that the single-process shapes do, after every step.
//   - Failure: fail-stop. A batch is logged and applied locally only
//     after every involved worker acknowledged phase 1. A worker failure
//     mid-batch aborts the commit atomically — nothing is logged or
//     applied locally — and so does a failure after phase 1 (a WAL append
//     that meets a full disk): the local state never saw the batch. The
//     workers may have, so the coordinator then stops: every later Apply
//     returns the first failure and touches nothing. Nothing redials a
//     worker, re-ships a shard or fences a session; the store goes on
//     with local commits, or under a new coordinator over fresh workers.
//     A batch that fails validation is rejected before phase 1 and is no
//     failure.
//   - One write path. Durable.Commit(b, ApplyOptions{...}) is the only
//     way a batch reaches a store, and it has one shape, local or
//     distributed: validate, log, apply. The zero ApplyOptions validates
//     against the base graph; Via validates through a Cluster instead —
//     Cluster.Apply plans the batch, runs phase 1 and the per-shard
//     cross-check, and then calls Commit's log-and-apply back (it is also
//     the protocol for a graph with no Durable). The Log/Exclusive hooks
//     splice in the serving tier's degradation and read-exclusion
//     policies — incgraphd builds them in one place for all its roles.
//   - One commit at a time. The coordinator holds one mutex from plan to
//     local apply, so distributed commits reach the workers, the WAL and
//     the authoritative graph in one order — one ΔG on one G, as IncX
//     assumes. VerifyShard takes the same mutex. The protocol ships the
//     already-validated plan
//     zero-copy — effects encode straight off the planner's pooled state,
//     and interned label tables travel once per session as deltas — and
//     the WAL append follows phase 1 rather than overlapping it.
//     TestHistory pins byte-identical summaries, answers and WAL files
//     between a cluster commit and the local one; perf/
//     reports what the distributed hop costs (cluster.commit_p50_ms,
//     cluster.overhead_ratio) without gating it.
//
// # High availability
//
// One replication layer (ClusterHub/ClusterStandby) and a set of drills.
// What survives which loss: the standby's own crash-safe store survives
// the loss of the primary. No shard worker takes part, and nothing is
// fenced: a library coordinator is fail-stop (Distribution, above), and a
// deposed primary is not refused by anyone.
//
//   - Standby failover — the one replication path. A ClusterHub beside
//     the primary feeds every committed record to ClusterStandby
//     processes (a handshake that registers the connection and then
//     snapshots under the lock the owner's commits and Feed calls run
//     under, so no commit falls between snapshot and feed; then a tail
//     whose heartbeats double as the primary's lease), and each standby
//     commits the record to its own store. On lease expiry — or an
//     operator's explicit promote — the standby's owner takes over at
//     term+1. The operator must know the old primary is dead before
//     promoting. TestHistory's "failover" shape pins that a primary that
//     dies mid-history plus a promoted standby produce the summaries, ΔO,
//     answers and snapshot bytes of the uninterrupted run. The serving
//     tier degrades monotonically: a standby with a live feed serves
//     reads that are current through the last fed commit; a standby that
//     outlived its primary keeps serving reads from its last durable
//     generation (never a write); a replica that diverged from a live
//     primary redirects reads to the primary rather than answer stale.
//   - Disk drills. The tests' FaultFS (internal/store) is a seeded
//     filesystem shim under the store's write path (DurableOptions.FS)
//     that fails chosen syscalls — EIO, ENOSPC, short and torn writes,
//     fsyncs that fail or lie, crash and power-loss at write K — with an
//     event log that is reproducible run to run, so disk drills replay
//     byte-for-byte.
//
// cmd/incgraphd exposes the replication path operationally: the serving
// daemon feeds standbys from -hub (its term set by -term), and "incgraphd
// standby" runs a warm replica that serves reads while tailing and
// becomes the primary at term+1 on "promote". "stat" reports the role,
// the standbys and the tail alongside the accept/commit error counters;
// "health" is the cheap role/liveness probe.
//
// # Overload and admission control
//
// The HA layer bounds what failure can do; the admission layer bounds
// what load can do. The serving daemon promises the same kind of
// monotonic degradation matrix under overload that the replica tier
// promises under process loss:
//
//   - A healthy daemon under nominal load answers everything; overload
//     protection is invisible (the gates' slots outnumber the load).
//   - Under a commit storm, commits queue up to a bounded depth and then
//     shed with an explicit "err overloaded ...; retry" reply — admitted
//     throughput plateaus at the gate's capacity instead of collapsing,
//     the p99 of admitted ops stays bounded by the per-op budget, and a
//     shed commit keeps its staged batch so the retry is one line.
//     Reads keep answering from the published view the whole time: they
//     take none of the commit path's locks, so a slow disk backs up
//     writers (who shed at the gate), never readers.
//   - Under a read storm the read gate sheds the excess the same way;
//     commits proceed unimpeded on their own gate.
//   - Slow, idle, and oversized-line clients are cut on per-connection
//     deadlines — a byte-at-a-time trickle is cut exactly like an idle
//     connection, an over-limit line gets "err proto: line too long" before the
//     close — and past -max-conns new connections are shed at accept.
//     A misbehaving client never degrades a healthy one.
//   - The disk has its own column in the matrix: healthy → retrying →
//     read-only → healed. A failed WAL append is retried with capped
//     backoff (healthy commits never notice a transient flake); a disk
//     that stays dead flips the daemon into advertised read-only mode,
//     where commits shed with "err disk degraded; read-only" — keeping
//     their staged batch, like any shed — while reads keep answering
//     from the published view and "health" says disk=read-only. A
//     background probe flips it back the moment a WAL fsync succeeds
//     again; recovery needs no operator and no restart, and "acked ⇒
//     durable" holds across the whole cycle — a commit acknowledged
//     before, during, or after the incident is on disk, and a shed one
//     left no trace.
//   - Nothing is silent: every shed, queue timeout, idle cut, oversized
//     line, and refused connection is a counter in "stat".
//
// Admitted is admitted: whatever was acked under the storm is exactly
// what the graph holds after it — byte-identical to a serial replay of
// the acked commits, the same currency crash recovery is held to.
// cmd/loadgen replays JSON-described scenarios (read-heavy, ingest-heavy,
// mixed, hot-key skew, slow clients, a 2x overload spike) against any of
// the daemon's modes and asserts exactly this contract plus latency
// bounds; CI runs a scaled-down mixed scenario every push.
//
// The facade in this package re-exports the library's types and
// constructors; the implementations live in internal packages:
//
//	internal/graph      directed labeled graphs, the update model, and
//	                    the NodeID → dense-index map of the flat engines
//	internal/kws        keyword search: batch build + IncKWS±/IncKWS over a
//	                    flat kdist (m entries per dense node) with
//	                    per-keyword scratch: epoch-stamped marks and a
//	                    bucket queue over distances 0…b
//	internal/rex        regular path expressions and the Glushkov NFA
//	internal/rpq        RPQ_NFA and IncRPQ over flat pmark_e tables: one
//	                    open-addressed array of (key, dist, |mpre|) per
//	                    source, cpre derived from the graph
//	internal/scc        Tarjan, contracted graph, ranks, IncSCC±/IncSCC
//	                    over a dense node index and an index-space mirror
//	                    of the adjacency that every pass walks
//	internal/iso        VF2 and the localizable IncISO on a pattern
//	                    compiled to index space: neighbour lists, degrees,
//	                    the edge list with its anchored search orders
//	internal/reach      SSRP (the unboundedness anchor)
//	internal/reduction  executable ∆-reductions from the Theorem 1 proofs
//	internal/gen        dataset simulators, update and query generators
//	internal/store      per-shard snapshots, the WAL, checkpoint/recover,
//	                    the byte codec every binary format shares
//	internal/cluster    shard workers, framed RPC, the fail-stop
//	                    distributed apply, standby failover
//
// A minimal session:
//
//	g := incgraph.NewGraph()
//	g.AddNode(1, "paper")
//	g.AddNode(2, "author")
//	g.AddEdge(1, 2)
//
//	e, _ := incgraph.NewRPQ(g, "paper.author")
//	_ = e.Matches() // [(1,2)]
//
//	delta, _ := e.Apply(incgraph.Batch{incgraph.Del(1, 2)})
//	_ = delta.Removed // [(1,2)]
//
// The sections above are the architecture overview; the benchmarks of
// bench_test.go regenerate the paper's figures (go test -run '^$' -bench
// 'Fig08|UnitUpdate|BatchOpt' .), and perf/README.md has the daemon's
// end-to-end and per-layer measurements.
package incgraph
