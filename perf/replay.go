package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// flushPolicy is the WAL flush policy of every in-process replay: the
// daemons' (-fsync none, see README.md).
const flushPolicy = incgraph.SyncNone

// timingFS is the store's filesystem seam with every device flush timed.
type timingFS struct {
	store.FS
	syncs *[]time.Duration
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) CreateTemp(dir, pattern string) (store.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) SyncDir(dir string) error {
	start := time.Now()
	defer func() { *f.syncs = append(*f.syncs, time.Since(start)) }()
	return f.FS.SyncDir(dir)
}

type timingFile struct {
	store.File
	fs *timingFS
}

func (c *timingFile) Sync() error {
	start := time.Now()
	defer func() { *c.fs.syncs = append(*c.fs.syncs, time.Since(start)) }()
	return c.File.Sync()
}

// engineStats is what the traced replay learns about one query class.
type engineStats struct {
	standing bool
	build    time.Duration
	// repairs are the Apply times over the timed batches (standing
	// classes) or over the sampled batches (the others); work and delta
	// are Meter.Total and |ΔO| summed over the same batches, updates the
	// unit updates in them.
	repairs     []time.Duration
	work, delta int
	updates     int
	// preferBatch counts the batches on which the cost model predicted the
	// batch algorithm to be cheaper, of estimates batches asked.
	preferBatch, estimates int
	// twinApply, twinUnit and twinRival sum, over the sampled batches,
	// Apply and ApplyUnitwise on freshly built states and the batch rival
	// on the updated graph.
	twinApply, twinUnit, twinRival time.Duration
}

// record adds one measured Apply of a batch of n updates.
func (st *engineStats) record(took time.Duration, work int, sum incgraph.DeltaSummary, n int, e *engine) {
	st.repairs = append(st.repairs, took)
	st.work += work
	st.delta += sum.Added + sum.Removed + sum.Updated
	st.updates += n
	if e.estimate != nil {
		st.estimates++
		if e.estimate().PreferBatch() {
			st.preferBatch++
		}
	}
}

// tracedEngine wraps an engine in a timing Maintained: a span around every
// Apply, with the work meter and |ΔO| read at the same boundary.
type tracedEngine struct {
	*engine
	tr    *tracer
	meter *cost.Meter
	st    *engineStats
	// warm is the number of leading batches that are not recorded.
	warm int32
}

func (e *tracedEngine) Apply(b incgraph.Batch) (incgraph.DeltaSummary, error) {
	before := e.meter.Total()
	id := e.tr.begin(e.Class() + ".repair")
	sum, err := e.engine.Apply(b)
	e.tr.end(id)
	if err == nil && e.tr.batch >= e.warm {
		e.st.record(e.tr.spans[id].dur(), e.meter.Total()-before, sum, len(b), e.engine)
	}
	return sum, err
}

// openDurable creates a store in dir from the seed snapshot — loaded the
// way the daemon loads it — and attaches the standing classes' engines,
// built on clones in the daemon's attach order.
func (r *run) openDurable(dir string, shards int, opts incgraph.DurableOptions, wrap func(class string, g *graph.Graph) (incgraph.Maintained, error)) (*incgraph.Durable, error) {
	g, err := incgraph.ReadSnapshotFile(r.snapPath())
	if err != nil {
		return nil, err
	}
	if shards != 0 {
		g.SetShards(shards)
	}
	g.SetParallelism(0)
	d, err := incgraph.CreateDurable(dir, g, opts)
	if err != nil {
		return nil, err
	}
	if err := r.attach(d, wrap); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (r *run) attach(d *incgraph.Durable, wrap func(class string, g *graph.Graph) (incgraph.Maintained, error)) error {
	for _, class := range r.w.classes {
		m, err := wrap(class, d.Graph().Clone())
		if err != nil {
			return err
		}
		if err := d.Attach(m); err != nil {
			return err
		}
	}
	return nil
}

// plain builds an engine with no wrapper: what the daemon attaches.
func (r *run) plain(class string, g *graph.Graph) (incgraph.Maintained, error) {
	return r.q.build(class, g, nil)
}

// sideBatches bounds the replays that run beside the traced one (see
// side): warm-up plus this many timed batches of the stream's head.
const sideBatches = 300

// tracedCycles is the number of cycles the in-process replays commit.
const tracedCycles = 2

// traceOut is what the traced replay measured.
type traceOut struct {
	tr *tracer
	// batches are the commits replayed: the warm-up and tracedCycles cycles.
	batches []graph.Batch
	classes map[string]*engineStats
	// warm is the number of leading warm-up batches in stream order.
	warm     int
	updates  int
	walBytes int64

	snapshotLoad, clone, checkpoint, recoverReplay time.Duration
	snapshotBytes                                  int64
	validate, apply, prepare                       time.Duration
	// untraced, synced, pipe and tcp are the commit times of the side
	// replays of the stream's head, fsyncs the device flushes of the synced
	// one's timed commits; place is what attaching the in-memory cluster
	// took.
	untraced, synced, pipe, tcp, fsyncs []time.Duration
	place                               time.Duration
}

// tracedReplay replays the run's stream in-process through the daemon's
// stack — CreateDurable + Attach + Commit — with a span around every call
// into a layer: the commit, the WAL step (ApplyOptions.Log), the apply
// step (ApplyOptions.Exclusive), every engine's Apply, every fsync.
func (r *run) tracedReplay() (*traceOut, error) {
	out := &traceOut{tr: newTracer(), classes: make(map[string]*engineStats), warm: len(r.s.warm.batches)}
	batches := r.s.replay(tracedCycles)
	out.batches = batches
	for _, class := range classOrder {
		out.classes[class] = &engineStats{standing: r.w.has(class)}
	}

	dir := filepath.Join(r.dir, "traced")
	d, err := r.openDurable(dir, 0, incgraph.DurableOptions{Sync: flushPolicy}, func(class string, g *graph.Graph) (incgraph.Maintained, error) {
		st, meter := out.classes[class], &cost.Meter{}
		start := time.Now()
		e, err := r.q.build(class, g, meter)
		if err != nil {
			return nil, err
		}
		st.build = time.Since(start)
		return &tracedEngine{engine: e, tr: out.tr, meter: meter, st: st, warm: int32(out.warm)}, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	opts := incgraph.ApplyOptions{
		Log: func(b incgraph.Batch, gen uint64) error {
			id := out.tr.begin("store.wal_append")
			defer out.tr.end(id)
			return d.LogPlanned(b, gen)
		},
		Exclusive: func(apply func() error) error {
			id := out.tr.begin("durable.apply_logged")
			defer out.tr.end(id)
			return apply()
		},
	}
	var sides []*side
	defer func() {
		for _, s := range sides {
			s.close()
		}
	}()
	for _, open := range []func() (*side, error){r.openPlain, r.openSynced, r.openClusterPipe, r.openClusterTCP} {
		s, err := open()
		if err != nil {
			return nil, err
		}
		sides = append(sides, s)
	}
	head := min(len(batches), out.warm+sideBatches)
	samples := maxSamples
	if r.small {
		samples = 1
	}
	for i, b := range batches {
		if i == out.warm {
			sides[1].fsyncs = nil
		}
		if i >= out.warm && sampleAt(i-out.warm, len(batches)-out.warm, samples) {
			if err := r.sampleTwins(d.Graph(), b, out.classes); err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
		}
		out.tr.batch = int32(i)
		id := out.tr.begin("durable.commit")
		_, err := d.Commit(b, opts)
		out.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if i >= out.warm {
			out.updates += len(b)
		}
		for _, s := range sides {
			if i >= head {
				break
			}
			if err := s.commit(b); err != nil {
				return nil, fmt.Errorf("side replay, batch %d: %w", i, err)
			}
		}
	}
	out.untraced, out.synced, out.fsyncs = sides[0].times, sides[1].times, sides[1].fsyncs
	out.pipe, out.tcp, out.place = sides[2].times, sides[3].times, sides[2].place
	out.tr.batch = -1
	out.walBytes = d.WALBytes()

	// The in-process stack must agree with the from-scratch build too.
	if err := r.checkEngines(d, "traced replay"); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	d = nil

	// Recovery: reopen the store and replay the whole WAL through freshly
	// built engines, then fold it into a snapshot.
	d, err = incgraph.OpenDurable(dir, incgraph.DurableOptions{Sync: flushPolicy})
	if err != nil {
		return nil, err
	}
	d.Graph().SetParallelism(0)
	if err := r.attach(d, r.plain); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.Recover(); err != nil {
		return nil, err
	}
	out.recoverReplay = time.Since(start)
	if err := r.checkEngines(d, "in-process recovery"); err != nil {
		return nil, err
	}
	if out.checkpoint, err = timeMedian(3, d.Checkpoint); err != nil {
		return nil, err
	}

	// The store's and the substrate's own costs, on bare graphs.
	if out.snapshotLoad, err = timeMedian(3, func() error {
		_, err := incgraph.ReadSnapshotFile(r.snapPath())
		return err
	}); err != nil {
		return nil, err
	}
	info, err := os.Stat(r.snapPath())
	if err != nil {
		return nil, err
	}
	out.snapshotBytes = info.Size()
	out.clone, _ = timeMedian(3, func() error { r.g.Clone(); return nil })
	bare := r.g.Clone()
	for i, b := range batches {
		t0 := time.Now()
		if err := bare.ValidateBatch(b); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := bare.ApplyBatch(b); err != nil {
			return nil, err
		}
		t2 := time.Now()
		bare.PrepareConcurrentReads()
		t3 := time.Now()
		if i >= out.warm {
			out.validate += t1.Sub(t0)
			out.apply += t2.Sub(t1)
			out.prepare += t3.Sub(t2)
		}
	}

	return out, nil
}

// checkEngines byte-compares every attached engine's answer with the
// from-scratch build on the seed graph, where whole cycles end.
func (r *run) checkEngines(d *incgraph.Durable, when string) error {
	for _, m := range d.Engines() {
		var buf bytes.Buffer
		if err := m.WriteAnswer(&buf); err != nil {
			return err
		}
		r.attempted++
		if !bytes.Equal(buf.Bytes(), r.atSeed[m.Class()]) {
			r.fail(1, "%s: %s answer differs from the from-scratch build", when, m.Class())
		}
	}
	return nil
}
