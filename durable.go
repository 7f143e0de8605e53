package incgraph

import (
	"fmt"
	"io"

	"incgraph/internal/store"
)

// Durability. A Durable couples one graph's on-disk store — a per-shard
// binary snapshot plus a write-ahead log of every batch applied since (see
// internal/store for the formats) — with the maintained engines serving
// answers over that graph. The contract:
//
//   - Commit is write-ahead: the batch is validated, appended to the WAL
//     (fsynced per the SyncPolicy), and only then applied to the base
//     graph and every attached engine. A crash after the append replays
//     the batch on recovery; a crash during it leaves a torn tail that
//     recovery truncates. Acknowledged batches are never lost under
//     SyncAlways.
//   - One graph, k repairs. Engines are built directly on Graph() and
//     attached: a commit then validates ΔG once, moves the one graph from
//     G to G ⊕ ΔG once, and hands each engine ΔG to repair its answer
//     against the graph as it now stands — the paper's cost model, where
//     producing G ⊕ ΔG is given and an engine pays for |AFF|. Only the
//     Durable mutates that graph. An engine that keeps a private graph
//     (built on Graph().Clone(), or wrapped in a type that shows only
//     Maintained) is attached too and driven through its own Apply, which
//     validates and applies ΔG to that copy again; the two kinds mix, and
//     the answers are byte-identical either way.
//   - Checkpoint folds the WAL into a fresh snapshot (written atomically,
//     manifest-committed) and starts an empty log.
//   - OpenDurable recovers the graph: the snapshot loads into an
//     Equal graph with the logged generation and the WAL's batches
//     are applied to it in log order, so the generation and WAL sequence
//     come back as logged. Engines are then built once on the recovered
//     graph, exactly as on a fresh store — the paper's batch algorithm run
//     once on G_snap ⊕ the tail, cheaper than repairing batch by batch —
//     and every maintained answer comes back byte-identical (WriteAnswer)
//     to the uninterrupted run, at any worker or shard count.
//
// Concurrency: Commit, Checkpoint and Close require exclusive access (they
// mutate). Between them the graphs and the attached engines are
// read-shareable per the usual contract, so concurrent readers can start
// as soon as a commit returns.

// SyncPolicy selects when the write-ahead log fsyncs; see the constants.
type SyncPolicy = store.SyncPolicy

const (
	// SyncAlways fsyncs the WAL after every Commit: acknowledged batches
	// survive OS and power failure. The default.
	SyncAlways = store.SyncAlways
	// SyncNone leaves WAL flushing to the OS: bounded loss on power
	// failure, much higher ingest throughput.
	SyncNone = store.SyncNone
)

// DurableOptions tunes a Durable.
type DurableOptions struct {
	// Sync is the WAL fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// FS routes the store's write-path file operations; nil means the
	// real filesystem. Set a *FaultFS to drill disk failures.
	FS FS
}

// Durable is a graph store plus the engines maintained in lockstep with it.
type Durable struct {
	st      *store.Store
	base    *Graph
	engines []Maintained
	// inPlace[i] is engines[i]'s repair entry when that engine was built on
	// base itself, nil when it keeps a private graph its own Apply advances.
	inPlace []repairer
}

// CreateDurable initializes a new store at dir from the current state of
// g and returns a Durable owning g as its base graph: from here on only
// the Durable mutates it. Engines built on g (MaintainKWS(NewKWS(g, ...))
// etc.) should be attached with Attach before the first Commit.
func CreateDurable(dir string, g *Graph, opts DurableOptions) (*Durable, error) {
	st, err := store.Create(dir, g, store.Options{Sync: opts.Sync, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	return &Durable{st: st, base: g}, nil
}

// OpenDurable opens the store at dir and recovers it: the snapshot loads,
// and the WAL's records are applied to that graph in log order (each
// update checked as it is applied), so Graph() is the state the last
// logged batch left and Generation and WALSeq are as logged. The returned
// Durable is then just like a fresh one: build engines on Graph(), Attach
// them, and commit. A record that does not apply fails the open.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	st, g, records, err := store.Open(dir, store.Options{Sync: opts.Sync, FS: opts.FS})
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		if err := g.ApplyBatch(rec.Batch); err != nil {
			st.Close()
			return nil, fmt.Errorf("incgraph: recovery replay of WAL record %d: %w", rec.Seq, err)
		}
	}
	return &Durable{st: st, base: g}, nil
}

// DurableExists reports whether dir holds a store a previous run created.
func DurableExists(dir string) bool { return store.Exists(dir) }

// Graph returns the base graph: after CreateDurable, the graph the store
// was created from; after OpenDurable, the recovered graph. Engines are
// built on it. Read it freely under the concurrency contract; mutating it
// is the Durable's alone.
func (d *Durable) Graph() *Graph { return d.base }

// Attach registers engines to be kept in lockstep: every commit from here
// on reaches them, and each one's LastDelta is that commit's ΔO. What an
// engine was built on is the whole choice of how:
//
//   - on Graph() itself, as the value a Maintain* constructor returned: the
//     Durable applies each batch to the graph once and the engine repairs
//     in place. Any number of engines share the graph this way.
//   - on a graph of its own (Graph().Clone()): the engine's Apply advances
//     that copy batch by batch, whatever type wraps it.
//
// Attach refuses, before anything is logged, what would otherwise fail on
// the first commit after the WAL append: a value on Graph() that does not
// offer the in-place repair (a type wrapping a Maintain* value — its Apply
// would apply every batch to the base graph a second time), and two
// engines on one private graph (the second one's Apply would find the
// batch applied).
func (d *Durable) Attach(ms ...Maintained) error {
	for _, m := range ms {
		var r repairer
		if m.Graph() == d.base {
			var ok bool
			if r, ok = m.(repairer); !ok {
				return fmt.Errorf("incgraph: Attach(%s): a %T on the base graph cannot repair in place; attach the Maintain* adapter itself, or build the engine on Graph().Clone()", m.Class(), m)
			}
		} else {
			for _, o := range d.engines {
				if o.Graph() == m.Graph() {
					return fmt.Errorf("incgraph: Attach(%s): shares a private graph with the attached %s engine, and each would apply every batch to it; build them on separate clones, or both on Graph()", m.Class(), o.Class())
				}
			}
		}
		d.engines = append(d.engines, m)
		d.inPlace = append(d.inPlace, r)
	}
	return nil
}

// Engines returns the attached engines, in attach order.
func (d *Durable) Engines() []Maintained { return d.engines }

// Recover does nothing: OpenDurable returns a recovered store. It remains
// only because the perf module's replay still calls it; it goes when that
// call does.
func (d *Durable) Recover() error { return nil }

// advance moves everything in memory from G to G ⊕ ΔG: the base graph
// once, then every engine in attach order — a repair against the base
// graph for those built on it, their own Apply for those on a private
// graph. b must be valid on the base graph, and norm is its normal form
// (b.Normalize()), the same for every engine in place.
func (d *Durable) advance(b, norm Batch) ([]DeltaSummary, error) {
	if err := d.base.ApplyBatch(b); err != nil {
		return nil, err
	}
	sums := make([]DeltaSummary, len(d.engines))
	for i, m := range d.engines {
		if r := d.inPlace[i]; r != nil {
			sums[i] = r.repair(b, norm)
			continue
		}
		sum, err := m.Apply(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Class(), err)
		}
		sums[i] = sum
	}
	return sums, nil
}

// ApplyOptions routes one Commit. The zero value is the plain local
// durable apply: validate, WAL-append, apply to the base graph and every
// attached engine.
type ApplyOptions struct {
	// Via, when non-nil, validates the batch through the cluster's
	// distributed two-phase protocol instead of locally: the coordinator
	// plans it, runs phase 1 on the shard workers and cross-checks their
	// per-shard deltas, and only then does Commit log and apply it, still
	// under the coordinator's mutex — one cluster commit at a time. A
	// worker failure aborts before anything is logged; a failure after
	// phase 1 (the WAL append, say) leaves the graph and engines
	// untouched. Either stops the coordinator: every later Commit through
	// it returns that failure and logs nothing, while local commits go on.
	Via *Cluster
	// Log, when set, replaces the WAL-append step. It receives the batch
	// (already validated) and the generation stamp the record should
	// carry, and must append exactly one record per successful return —
	// d.LogPlanned is the default it replaces. Serving layers hook their
	// disk-degradation retry loops here.
	Log func(b Batch, gen uint64) error
	// Exclusive, when set, wraps the in-memory application: Commit calls
	// it with the apply step, and it must run that function under
	// whatever write-exclusion the caller's readers respect. The WAL
	// append stays outside it, so a stalled fsync backs up writers, never
	// readers. Nil applies directly.
	Exclusive func(apply func() error) error
}

// Commit is the one write path, and it has one shape, local or through a
// cluster: validate b — against the base graph, or with opts.Via by the
// cluster's plan, phase 1 and per-shard cross-check; append it to the
// write-ahead log; apply it to the base graph and every attached engine.
// It returns the per-engine summaries in attach order, with identical
// results and identical WAL bytes either way. Nothing is logged before
// validation (and phase 1) succeeded, so a logged batch is always
// replayable and a rejected batch changes nothing. A crash between the
// append and the apply is safe: recovery applies the logged batch exactly
// as if the crash had hit mid-apply.
func (d *Durable) Commit(b Batch, opts ApplyOptions) ([]DeltaSummary, error) {
	logFn := opts.Log
	if logFn == nil {
		logFn = d.LogPlanned
	}
	var sums []DeltaSummary
	var norm Batch // b's normal form, which local validation takes on the way
	apply := func() error {
		if opts.Via != nil {
			norm = b.Normalize()
		}
		var err error
		if sums, err = d.advance(b, norm); err != nil {
			// Unreachable after validation; surface loudly if it ever happens.
			return fmt.Errorf("incgraph: validated batch failed to apply: %w", err)
		}
		return nil
	}
	commit := func() error {
		if err := logFn(b, d.base.Generation()); err != nil {
			return err
		}
		if opts.Exclusive != nil {
			return opts.Exclusive(apply)
		}
		return apply()
	}
	var err error
	if opts.Via != nil {
		err = opts.Via.Apply(b, commit)
	} else if norm, err = d.base.ValidateNormalize(b); err == nil {
		err = commit()
	}
	if err != nil {
		return nil, err
	}
	return sums, nil
}

// LogPlanned appends one already-validated batch to the write-ahead log
// (fsynced per the SyncPolicy), stamped with gen — the default log step
// of Commit, exported for ApplyOptions.Log hooks that wrap it (a serving
// layer's disk-degradation retry loop). Commit guarantees the batch was
// validated against the state the stamp describes before any Log hook
// runs; calling LogPlanned outside one is not supported.
func (d *Durable) LogPlanned(b Batch, gen uint64) error {
	if err := d.st.Append(b, gen); err != nil {
		return fmt.Errorf("incgraph: WAL append: %w", err)
	}
	return nil
}

// Checkpoint makes the current state the durable baseline: a fresh
// per-shard snapshot of the base graph, an empty WAL, and removal of the
// superseded files. Recovery time drops to a snapshot load.
func (d *Durable) Checkpoint() error {
	return d.st.Checkpoint(d.base)
}

// WALBytes returns the write-ahead log's current size: the natural
// auto-checkpoint threshold signal.
func (d *Durable) WALBytes() int64 { return d.st.WALSize() }

// WALSeq returns the sequence number of the last logged batch.
func (d *Durable) WALSeq() uint64 { return d.st.WALSeq() }

// Epoch returns the checkpoint epoch (1 on a fresh store, +1 per
// Checkpoint).
func (d *Durable) Epoch() uint64 { return d.st.Epoch() }

// Generation returns the base graph's mutation generation.
func (d *Durable) Generation() uint64 { return d.base.Generation() }

// Close closes the write-ahead log. The store remains openable.
func (d *Durable) Close() error { return d.st.Close() }

// WALBroken returns the wedging error of a WAL whose failed append could
// not be rolled back, or nil while appends can still be acknowledged. A
// broken log heals through Checkpoint, which starts a fresh one — the
// probe a serving layer's disk-degradation recovery loop keys off.
func (d *Durable) WALBroken() error { return d.st.WALBroken() }

// SyncWAL forces a WAL fsync regardless of policy: a cheap disk-health
// probe for deciding when a degraded daemon may leave read-only mode.
func (d *Durable) SyncWAL() error { return d.st.Sync() }

// Snapshot I/O, re-exported for callers that want graph persistence
// without a store directory (the CLI tools accept .snap files anywhere a
// text graph is accepted).

// WriteSnapshot serializes g in the versioned per-shard binary snapshot
// format (see internal/store). Deterministic: identical graphs produce
// identical bytes.
func WriteSnapshot(w io.Writer, g *Graph) error { return store.WriteSnapshot(w, g) }

// WriteSnapshotFile writes a snapshot atomically (temp file + rename).
func WriteSnapshotFile(path string, g *Graph) error { return store.WriteSnapshotFile(nil, path, g) }

// ReadSnapshotFile loads a snapshot file into an Equal graph with the
// snapshot's shard count and mutation generation, loading segments in
// parallel.
func ReadSnapshotFile(path string) (*Graph, error) { return store.ReadSnapshotFile(path) }

// LoadGraphFile loads a graph from path in either supported format,
// sniffing the snapshot magic: .snap files load via ReadSnapshotFile,
// anything else parses as the line-oriented text format.
func LoadGraphFile(path string) (*Graph, error) { return store.ReadGraphFile(path) }

// ValidateBatch reports whether ApplyBatch(b) would succeed on g, without
// mutating anything; see graph.ValidateBatch.
func ValidateBatch(g *Graph, b Batch) error { return g.ValidateBatch(b) }

// Disk-fault injection, re-exported from internal/store. A FaultFS wraps
// the real filesystem and fails chosen syscalls deterministically, so disk
// drills (ENOSPC mid-append, lying fsync, power loss at write K) run seeded
// and reproducible through DurableOptions.FS; see store.FaultFS.
type (
	// FS is the filesystem seam every store write goes through.
	FS = store.FS
	// FaultFS is a seeded fault-injecting FS.
	FaultFS = store.FaultFS
	// FSRule matches filesystem operations for fault injection.
	FSRule = store.FSRule
	// FaultKind is the failure a fired FSRule injects.
	FaultKind = store.FaultKind
)

// Disk-fault kinds for FSRule.Kind; see the store package constants.
const (
	FaultEIO        = store.FaultEIO
	FaultENOSPC     = store.FaultENOSPC
	FaultShortWrite = store.FaultShortWrite
	FaultTornWrite  = store.FaultTornWrite
	FaultSyncFail   = store.FaultSyncFail
	FaultSyncLie    = store.FaultSyncLie
	FaultCrash      = store.FaultCrash
	FaultPowerFail  = store.FaultPowerFail
)

// ErrDiskCrashed reports a filesystem operation attempted after an
// injected crash or power failure.
var ErrDiskCrashed = store.ErrCrashed

// NewFaultFS builds a seeded fault-injecting filesystem from rules.
func NewFaultFS(seed int64, rules ...FSRule) *FaultFS { return store.NewFaultFS(seed, rules...) }
