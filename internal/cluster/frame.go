// Package cluster runs the sharded graph substrate across processes: shard
// worker processes each own a subset of the graph's shards behind a
// framed RPC protocol, and a coordinator drives ApplyBatch's
// two-phase protocol over the wire — phase 1 fans each shard's slice of a
// validated batch plan out to the worker owning it, in parallel; phase 2
// merges the per-shard deltas deterministically in shard order on the
// coordinator — so a distributed application produces state byte-identical
// to the single-process one. Shard placement ships the per-shard snapshot
// segments of internal/store (EncodeShardParcel / DecodeShardParcel
// feeding graph.LoadShard); placement is round-robin, happens once when
// the coordinator attaches, and is fixed for its lifetime. The
// coordinator commits one batch at a time: its mutex is held from plan to
// local commit.
//
// # Division of state
//
// The coordinator keeps the authoritative full graph: it is where batches
// are validated and planned, where the serving engines (KWS/RPQ/SCC/ISO)
// and the durability layer live, and where placement segments come from.
// Workers hold authoritative *shard replicas* — node records and
// adjacency for their placed shards, nothing graph-global (no inverted
// label index, no edge count; see graph.ApplyShardEffects) — and nothing
// from one coordinator to the next: a hello resets the worker. A batch
// commits only after every involved worker acknowledged phase 1.
//
// The coordinator is fail-stop. A worker failure mid-phase-1, a diverged
// cross-check or a failed local commit fails the batch atomically — the
// coordinator never commits it, and the authoritative graph is untouched
// — and then stops: every later Apply returns that first failure. Nothing
// redials a worker, re-places a shard or fences a session; a caller that
// wants to go on attaches a new coordinator over fresh workers.
//
// No read, recovery or promotion is served from a worker's replicas. What
// a worker's copy is read by, the whole list:
//   - phase 1's per-shard cross-check: the worker applies its slice of the
//     plan and reports each shard's edge delta, which must match the plan's;
//   - VerifyShard/VerifyAll: the worker exports a shard's parcel and the
//     coordinator compares it byte for byte with its own (the tests' and
//     perf's parity oracle).
//
// # High availability
//
// Standby failover (lease.go) is the one replication path: a Hub beside
// the primary feeds every committed record to Standby tails, each of which
// keeps its own crash-safe store, and whose heartbeats double as the
// primary's lease; promotion makes the standby's store the primary. The
// hub speaks the same framing as the workers.
//
// # Framing
//
// Every message is one frame of internal/store's byte codec — the
// length+CRC frame the WAL writes its records in — and its body is read by
// the codec's Reader, as the WAL, the snapshot and the shard parcels are.
// A message is built behind a reserved frame header, which send stamps in
// place, so each leaves in one write.
package cluster

// preHelloMaxFrame bounds frames on a worker connection before its first
// successfully handled request. A hello is a few dozen bytes; the cap
// keeps a stray non-protocol connection (a misdirected health probe whose
// first bytes parse as a huge little-endian length) from provoking a
// near-gigabyte allocation before any validation has happened.
const preHelloMaxFrame = 1 << 12
