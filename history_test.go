package incgraph_test

// The root package's one differential harness. A seeded history runs in
// lockstep through every deployment shape incgraph has — engines on
// clones, in place, mixed, serial, wide, behind the serving hooks, crashed
// and recovered, behind a cluster, failed over to a standby — and after
// every step each shape is judged against the reference shape ("clones"
// in TestHistory) for everything a caller can observe, and the reference
// against from-scratch builds on the simulated graph for every class's
// answer and ΔO. The history is internal/history's, the engine builders
// and that oracle internal/history/oracle's; cmd/incgraphd's
// TestDaemonHistory drives both over the wire. The tests after TestHistory
// each run a short history through the few shapes one concern sets side by
// side.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/history"
	"incgraph/internal/history/oracle"
)

// attachInPlace builds every class's engine build has on d's own graph,
// the way incgraphd attaches its engines, and attaches them in
// oracle.Classes order: Attach takes any adapter built on the store's
// graph.
func attachInPlace(d *incgraph.Durable, build oracle.Builders) map[string]oracle.Engine {
	engines := make(map[string]oracle.Engine, len(build))
	for _, class := range build.Classes() {
		e := build[class](d.Graph())
		if err := d.Attach(e.M); err != nil {
			panic(err)
		}
		engines[class] = e
	}
	return engines
}

// shape is one deployment the history runs through: a store, the engines
// attached to it, and how a batch reaches it.
type shape struct {
	name    string
	dir     string
	d       *incgraph.Durable
	engines map[string]oracle.Engine
	shards  int
	// cl is the coordinator commits go through, nil for a local store.
	cl *incgraph.Cluster
	// reborn is set once a recovery rebuilt the engines, and fresh from
	// that rebuild to the end of the step it happened in: engines just
	// built have applied no batch.
	reborn, fresh bool
	// logsAll is cleared on a shape whose WAL is not one record per
	// commit of the history: it checkpoints, or crashes.
	logsAll bool
	// commit commits b, the history's step-th batch or a rejected one.
	commit func(step int, b incgraph.Batch) ([]incgraph.DeltaSummary, error)
}

// harness is one run of runHistory: the first graph, the builder and the
// length of the history.
type harness struct {
	t *testing.T
	// g is the first graph at 4 shards, a count no shape runs at.
	g     *incgraph.Graph
	build oracle.Builders
	steps int
}

// shapeSpec names a deployment, the shard count its store starts at, and
// how the shape is set up on that store.
type shapeSpec struct {
	name   string
	shards int
	open   func(hs *harness, s *shape)
}

// shapes are the deployments, each opened on a store of its shard count.
// Every shape but "clones" attaches its engines in place, as incgraphd
// does; those at 2 shards re-shard to 8 half way through the history.
var shapes = []shapeSpec{
	// The reference: every engine on a clone of its own, advanced by its
	// own Apply — the path perf/ measures.
	{"clones", 2, func(hs *harness, s *shape) {
		for _, class := range hs.build.Classes() {
			hs.attach(s, class, s.d.Graph().Clone())
		}
	}},
	{"inplace", 2, func(hs *harness, s *shape) { s.engines = attachInPlace(s.d, hs.build) }},
	// kws in place beside scc on a clone.
	{"mixed", 2, func(hs *harness, s *shape) {
		hs.attach(s, "kws", s.d.Graph())
		hs.attach(s, "scc", s.d.Graph().Clone())
	}},
	{"serial", 1, func(hs *harness, s *shape) {
		s.d.Graph().SetParallelism(1)
		s.engines = attachInPlace(s.d, hs.build)
	}},
	// Every loop starts all of its helpers before its first iteration.
	{"wide", 2, func(hs *harness, s *shape) {
		defer graph.EagerFanOut()()
		s.d.Graph().SetParallelism(8)
		s.engines = attachInPlace(s.d, hs.build)
		s.commit = func(_ int, b incgraph.Batch) ([]incgraph.DeltaSummary, error) {
			defer graph.EagerFanOut()()
			return s.d.Commit(b, incgraph.ApplyOptions{})
		}
	}},
	{"hooked", 2, openHooked},
	{"recovering", 2, recovering(true)},
	{"cluster", 8, func(hs *harness, s *shape) {
		s.engines = attachInPlace(s.d, hs.build)
		links, _, stop := incgraph.InProcessLinks(2)
		hs.t.Cleanup(stop)
		s.cl = hs.cluster(s.d.Graph(), links)
	}},
	{"failover", 8, openFailover},
}

// attach builds class's engine on g and attaches it to s's store.
func (hs *harness) attach(s *shape, class string, g *incgraph.Graph) {
	e := hs.build[class](g)
	if err := s.d.Attach(e.M); err != nil {
		hs.t.Fatal(err)
	}
	s.engines[class] = e
}

// cluster attaches the linked workers to g under a coordinator the test
// closes.
func (hs *harness) cluster(g *incgraph.Graph, links []incgraph.ClusterLink) *incgraph.Cluster {
	cl, err := incgraph.NewCluster(g, links)
	if err != nil {
		hs.t.Fatal(err)
	}
	hs.t.Cleanup(func() { cl.Close() })
	return cl
}

// pick returns the named shapes of the table.
func pick(names ...string) []shapeSpec {
	specs := make([]shapeSpec, len(names))
	for i, name := range names {
		specs[i] = shapes[slices.IndexFunc(shapes, func(s shapeSpec) bool { return s.name == name })]
	}
	return specs
}

// open creates the shape's store on a copy of the first graph re-sharded
// to the shape's shard count.
func (hs *harness) open(spec shapeSpec) *shape {
	t := hs.t
	g := hs.g.Clone()
	g.SetShards(spec.shards)
	s := &shape{name: spec.name, dir: t.TempDir(), engines: map[string]oracle.Engine{}, shards: spec.shards, logsAll: true}
	d, err := incgraph.CreateDurable(s.dir, g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s.d = d
	s.commit = func(_ int, b incgraph.Batch) ([]incgraph.DeltaSummary, error) {
		return s.d.Commit(b, incgraph.ApplyOptions{Via: s.cl})
	}
	spec.open(hs, s)
	return s
}

// openHooked commits through both of ApplyOptions' hooks, as incgraphd
// does: its own log step around LogPlanned, the apply step under its own
// exclusion. The log step must run first, and neither may run for a
// rejected batch.
func openHooked(hs *harness, s *shape) {
	t := hs.t
	s.engines = attachInPlace(s.d, hs.build)
	s.commit = func(step int, b incgraph.Batch) ([]incgraph.DeltaSummary, error) {
		logged, applied := false, false
		sums, err := s.d.Commit(b, incgraph.ApplyOptions{
			Log: func(b incgraph.Batch, gen uint64) error {
				logged = true
				return s.d.LogPlanned(b, gen)
			},
			Exclusive: func(apply func() error) error {
				if !logged {
					t.Fatalf("step %d: the apply step ran before the log step", step)
				}
				applied = true
				return apply()
			},
		})
		if err != nil && logged || err == nil && !applied {
			t.Fatalf("step %d: commit error %v, log step ran %v, apply step ran %v", step, err, logged, applied)
		}
		return sums, err
	}
}

// recovering opens a shape that checkpoints a quarter of the way through
// the history if checkpoint is set, crashes after the commit half way, and
// crashes between the log step and the apply step at three quarters. Each
// crash keeps only the directory; the store comes back the way a restarted
// incgraphd's does.
func recovering(checkpoint bool) func(hs *harness, s *shape) {
	return func(hs *harness, s *shape) { openRecovering(hs, s, checkpoint) }
}

func openRecovering(hs *harness, s *shape, checkpoint bool) {
	t := hs.t
	s.engines = attachInPlace(s.d, hs.build)
	s.logsAll = false
	errCrash := errors.New("crashed between log and apply")
	s.commit = func(step int, b incgraph.Batch) ([]incgraph.DeltaSummary, error) {
		if step == 3*hs.steps/4 {
			_, err := s.d.Commit(b, incgraph.ApplyOptions{
				Exclusive: func(func() error) error { return errCrash },
			})
			if !errors.Is(err, errCrash) {
				return nil, err
			}
			hs.reopen(s)
			return nil, nil
		}
		sums, err := s.d.Commit(b, incgraph.ApplyOptions{})
		if err != nil {
			return nil, err
		}
		switch {
		case step == hs.steps/4 && checkpoint:
			if err := s.d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case step == hs.steps/2:
			hs.reopen(s)
		}
		return sums, nil
	}
}

// reopen drops everything s holds in memory but its directory, then opens
// the store, which recovers its graph, and builds and attaches the engines
// in place on that graph.
func (hs *harness) reopen(s *shape) {
	t := hs.t
	s.d.Close()
	d, err := incgraph.OpenDurable(s.dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.Graph().SetShards(s.shards)
	s.engines = attachInPlace(d, hs.build)
	s.d, s.reborn, s.fresh = d, true, true
}

// openFailover is a primary whose apply step feeds a hub, and a standby
// tailing it that, like incgraphd's, seeds a store of its own from the
// handshake snapshot, attaches its engines in place and commits every fed
// record to it. Half way through the history the primary dies without
// ceremony, and the standby is promoted: its store commits the rest.
func openFailover(hs *harness, s *shape) {
	t := hs.t
	s.engines = attachInPlace(s.d, hs.build)
	s.logsAll = false
	primary := s.d
	hub := incgraph.NewClusterHub(incgraph.ClusterHubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
			snap, err := incgraph.EncodeSnapshot(primary.Graph())
			return 0, primary.Generation(), snap, err
		},
	})
	var standby *incgraph.Durable
	var standbyEngines map[string]oracle.Engine
	standbyDir := t.TempDir()
	fed := make(chan uint64, 1) // 0 once loaded, then each applied record's seq
	tail := make(chan error, 1)
	st := incgraph.NewClusterStandby(incgraph.ClusterStandbyOptions{
		TTL: time.Minute,
		Load: func(_, _, _ uint64, snap []byte) error {
			g, err := incgraph.DecodeSnapshot(snap)
			if err != nil {
				return err
			}
			d, err := incgraph.CreateDurable(standbyDir, g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
			if err != nil {
				return err
			}
			standbyEngines = attachInPlace(d, hs.build)
			standby = d
			fed <- 0
			return nil
		},
		Apply: func(seq, postGen uint64, b incgraph.Batch) error {
			if _, err := standby.Commit(b, incgraph.ApplyOptions{}); err != nil {
				return err
			}
			if gen := standby.Generation(); gen != postGen {
				return fmt.Errorf("standby at gen %d, primary said %d", gen, postGen)
			}
			fed <- seq
			return nil
		},
	})
	hubConn, standbyConn := net.Pipe()
	go hub.ServeConn(hubConn)
	go func() { tail <- st.Run(standbyConn) }()
	t.Cleanup(func() { hub.Close(); hubConn.Close() })
	// Every wait on the standby draws on one budget, far more than a
	// healthy history spends in all of them together.
	budget := 30 * time.Second
	spend := func() (<-chan time.Time, func()) {
		start, timer := time.Now(), time.NewTimer(budget)
		return timer.C, func() { timer.Stop(); budget -= time.Since(start) }
	}
	var feedSeq uint64
	next := func(what string) {
		t.Helper()
		out, done := spend()
		defer done()
		select {
		case seq := <-fed:
			if seq != feedSeq {
				t.Fatalf("%s: the standby applied record %d, want %d", what, seq, feedSeq)
			}
		case err := <-tail:
			t.Fatalf("%s: the standby's tail ended: %v", what, err)
		case <-out:
			t.Fatalf("%s: the standby's waits ran out of time", what)
		}
	}
	next("the standby's handshake")
	t.Cleanup(func() { standby.Close() })

	s.commit = func(step int, b incgraph.Batch) ([]incgraph.DeltaSummary, error) {
		if s.d != primary {
			return s.d.Commit(b, incgraph.ApplyOptions{})
		}
		sums, err := s.d.Commit(b, incgraph.ApplyOptions{Exclusive: func(apply func() error) error {
			pre := primary.Generation()
			if err := apply(); err != nil {
				return err
			}
			feedSeq++
			hub.Feed(feedSeq, pre, primary.Generation(), b)
			return nil
		}})
		if err != nil {
			return nil, err
		}
		next(fmt.Sprintf("step %d", step))
		if step != hs.steps/2 {
			return sums, nil
		}
		// The primary dies: its feed is severed.
		hub.Close()
		hubConn.Close()
		out, done := spend()
		select {
		case err := <-tail:
			if err == nil {
				t.Fatal("the standby's tail survived the primary")
			}
		case <-out:
			t.Fatal("the standby's tail outlived the primary: the standby's waits ran out of time")
		}
		done()
		s.d, s.engines = standby, standbyEngines
		return sums, nil
	}
}

// runHistory drives one seeded history — a batch of each of sizes, a
// rejected batch before every third — through the shapes in lockstep,
// each with an engine of every class in only (of all four if only is nil).
// The first shape is the reference, and must not recover: a rebuilt
// engine holds no ΔO. It fails the test at the first step a shape
// parts from the reference or the reference from the oracle, and returns
// how often each class took rebuild-and-diff.
func runHistory(t *testing.T, seed int64, sizes []int, only []string, specs ...shapeSpec) map[string]int {
	hs := &harness{t: t, g: oracle.Graph(), steps: len(sizes)}
	hs.g.SetShards(4)
	var q oracle.Queries
	hs.build, q = oracle.Engines(hs.g)
	if only != nil {
		maps.DeleteFunc(hs.build, func(class string, _ func(*incgraph.Graph) oracle.Engine) bool { return !slices.Contains(only, class) })
	}
	all := make([]*shape, len(specs))
	for i, spec := range specs {
		all[i] = hs.open(spec)
	}
	ref := all[0]
	h := history.New(hs.g, seed)
	o := oracle.New(hs.build, h.Sim)
	rebuilds := map[string]int{}
	for step, size := range sizes {
		if step == hs.steps/2 {
			for _, s := range all {
				if s.shards == 2 {
					s.shards = 8
					s.d.Graph().SetShards(8)
					for _, e := range s.engines {
						e.M.Graph().SetShards(8)
					}
				}
			}
		}
		if step%3 == 0 {
			bad := h.BadBatch()
			for _, s := range all {
				before := map[string]string{}
				for class, e := range s.engines {
					before[class] = e.Observe()
				}
				g := s.d.Graph()
				nodes, edges, gen, wal := g.NumNodes(), g.NumEdges(), s.d.Generation(), s.d.WALBytes()
				if _, err := s.commit(step, bad); !errors.Is(err, incgraph.ErrBadUpdate) {
					t.Fatalf("step %d, %s: bad batch: %v", step, s.name, err)
				}
				if g.NumNodes() != nodes || g.NumEdges() != edges || s.d.Generation() != gen || s.d.WALBytes() != wal {
					t.Fatalf("step %d, %s: a rejected batch moved the graph or the WAL", step, s.name)
				}
				for class, e := range s.engines {
					if got := e.Observe(); got != before[class] {
						t.Fatalf("step %d, %s: a rejected batch moved %s: %s", step, s.name, class, oracle.FirstDiff(got, before[class]))
					}
				}
			}
		}
		preV, preE := h.Sim.NumNodes(), h.Sim.NumEdges()
		b := h.Batch(size)
		sums := make([][]incgraph.DeltaSummary, len(all))
		for i, s := range all {
			var err error
			if sums[i], err = s.commit(step, b); err != nil {
				t.Fatalf("step %d, %s: %v", step, s.name, err)
			}
		}
		o.Advance(h.Sim)
		if err := o.Check(ref.engines); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		refSums := map[string]incgraph.DeltaSummary{}
		for j, m := range ref.d.Engines() {
			refSums[m.Class()] = sums[0][j]
		}
		want, answers := map[string]string{}, map[string]string{}
		for class, e := range ref.engines {
			want[class], answers[class] = e.Observe(), e.Answer()
			if e.Rebuilt() {
				rebuilds[class]++
			}
		}
		// The shapes share nothing but the simulated graph, which they only
		// read: each is checked on a goroutine of its own.
		errs := make([]error, len(all))
		var wg sync.WaitGroup
		for i, s := range all {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs[i] = s.check(h.Sim, len(q.KWS.Keywords)*(preV+preE)); errs[i] == nil && i > 0 {
					errs[i] = s.matches(sums[i], refSums, want, answers)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == hs.steps/2 {
			verifyClusters(t, all)
		}
		for _, s := range all {
			s.fresh = false
		}
	}
	verifyClusters(t, all)
	// Every snapshot decodes to the history's graph, and a snapshot stores
	// no slot, so every shape at 8 shards — born there, re-sharded half
	// way or recovered — writes one snapshot's bytes. The WAL depends on
	// the history alone: the shapes that logged every commit share one
	// WAL's bytes.
	var snap0, wal0 []byte
	for _, s := range all {
		snap, err := incgraph.EncodeSnapshot(s.d.Graph())
		if err != nil {
			t.Fatal(err)
		}
		if g, err := incgraph.DecodeSnapshot(snap); err != nil || !g.Equal(h.Sim) {
			t.Fatalf("%s: the snapshot does not decode to the history's graph (%v)", s.name, err)
		}
		if s.shards == 8 {
			if snap0 == nil {
				snap0 = snap
			} else if !bytes.Equal(snap, snap0) {
				t.Fatalf("%s: the snapshot differs from the other shapes' at 8 shards", s.name)
			}
		}
		if s.logsAll {
			if err := s.d.Close(); err != nil {
				t.Fatal(err)
			}
			wals, err := filepath.Glob(filepath.Join(s.dir, "wal-*.log"))
			if err != nil || len(wals) != 1 {
				t.Fatalf("%s: want one WAL file, got %v (%v)", s.name, wals, err)
			}
			wal, err := os.ReadFile(wals[0])
			if err != nil {
				t.Fatal(err)
			}
			if wal0 == nil {
				wal0 = wal
			} else if !bytes.Equal(wal, wal0) {
				t.Fatalf("%s: the WAL differs from the other shapes' (%d bytes, %d)", s.name, len(wal), len(wal0))
			}
		}
	}
	return rebuilds
}

// check holds s, after a step, to the simulated graph and every engine's
// audit, and kws' estimate to a batch build priced at batchCost — unless
// kws was just built, when matches holds it to the zero estimate.
func (s *shape) check(sim *incgraph.Graph, batchCost int) error {
	if !s.d.Graph().Equal(sim) {
		return fmt.Errorf("%s: the store's graph diverged from the simulated history", s.name)
	}
	for class, e := range s.engines {
		if err := e.Audit(); err != nil {
			return fmt.Errorf("%s: %s audit: %v", s.name, class, err)
		}
	}
	if e, ok := s.engines["kws"]; ok && !s.fresh {
		if est := e.Estimate(); est.BatchCost != batchCost {
			return fmt.Errorf("%s: kws estimated a batch build at %d, want %d: keywords × (|V| + |E|) of the pre-state", s.name, est.BatchCost, batchCost)
		}
	}
	return nil
}

// matches holds s's summaries of a step (nil when a crash took them) and
// what its engines show to the reference's: an engine a recovery rebuilt
// is held to all but its meter, and in the step it was built to the
// reference's answer, an empty ΔO and the zero estimate.
func (s *shape) matches(sums []incgraph.DeltaSummary, ref map[string]incgraph.DeltaSummary, want, answers map[string]string) error {
	for j, m := range s.d.Engines() {
		if r := ref[m.Class()]; sums != nil && sums[j] != r {
			return fmt.Errorf("%s: %s summary %v, the reference's %v", s.name, m.Class(), sums[j], r)
		}
	}
	for class, e := range s.engines {
		if s.fresh {
			if got := e.Answer(); got != answers[class] {
				return fmt.Errorf("%s: rebuilt %s answers differently from the reference: %s", s.name, class, oracle.FirstDiff(got, answers[class]))
			}
			if d := oracle.RenderLastDelta(e.M); d != "" {
				return fmt.Errorf("%s: %s, just built, holds a ΔO: %q", s.name, class, d)
			}
			if e.Estimate != nil && e.Estimate() != (cost.Estimate{}) {
				return fmt.Errorf("%s: %s, just built, holds the estimate %v", s.name, class, e.Estimate())
			}
			continue
		}
		got, want := e.Observe(), want[class]
		if s.reborn {
			got, want = oracle.SansMeter(got), oracle.SansMeter(want)
		}
		if got != want {
			return fmt.Errorf("%s: %s differs from the reference: %s", s.name, class, oracle.FirstDiff(got, want))
		}
	}
	return nil
}

// verifyClusters requires every worker replica of every shape behind a
// cluster to match its coordinator's segments.
func verifyClusters(t *testing.T, all []*shape) {
	t.Helper()
	for _, s := range all {
		if s.cl == nil {
			continue
		}
		if err := s.cl.VerifyAll(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// focusSizes are the batches of the tests that hold one concern to the
// harness: none large enough for rebuild-and-diff, which
// TestShardedBatchFallbackParity and TestHistory reach.
var focusSizes = []int{4, 64, 32, 64}

// TestHistory runs the seeded history — two rounds of history.Sizes, one
// with -short — through all nine shapes. After every step each shape must
// report the reference's summaries and show what it shows (ΔO rows in
// order, answer bytes, metered work, cost-model verdict), hold the
// simulated graph, keep every engine's audit green, and have let a
// rejected batch move nothing; the reference's ΔO must be the keyed diff
// of from-scratch builds. The cluster replicas verify clean half way and
// at the end, when the WALs of the shapes that neither checkpointed nor
// crashed are byte-identical, and the snapshots of every shape at 8 shards
// are too.
func TestHistory(t *testing.T) {
	t.Parallel()
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	var steps []int
	for range rounds {
		steps = append(steps, history.Sizes...)
	}
	mustRebuild(t, runHistory(t, 200, steps, nil, shapes...))
}

// mustRebuild fails the test unless kws and iso each took rebuild-and-diff.
func mustRebuild(t *testing.T, rebuilds map[string]int) {
	t.Helper()
	if rebuilds["kws"] == 0 || rebuilds["iso"] == 0 {
		t.Fatalf("rebuild-and-diff was taken %d times by kws, %d by iso: the history must reach it in both", rebuilds["kws"], rebuilds["iso"])
	}
}

// The tests below hold one concern each to the same harness: a history of
// focusSizes from a seed of their own, through the shapes that concern
// sets side by side, the first the reference. They share nothing and run
// in parallel with each other and TestHistory, all but
// TestParallelMatchesSequential. EagerFanOut is process-wide: TestHistory's
// wide shape turning it on and back off changes how the others' loops fan
// out, never what they compute, but two wide shapes at once could leave it
// on for good.

// TestParallelMatchesSequential: each class alone on its store, its loops
// on one worker and on eight that all start before the first iteration.
func TestParallelMatchesSequential(t *testing.T) {
	for _, class := range oracle.Classes {
		t.Run(class, func(t *testing.T) {
			runHistory(t, 42, focusSizes, []string{class}, pick("serial", "wide")...)
		})
	}
}

// TestShardedMatchesUnsharded: each class alone on its store, the graph at
// one shard and at two re-sharded to eight.
func TestShardedMatchesUnsharded(t *testing.T) {
	t.Parallel()
	for _, class := range oracle.Classes {
		t.Run(class, func(t *testing.T) {
			runHistory(t, 1337, focusSizes, []string{class}, pick("serial", "inplace")...)
		})
	}
}

// TestShardedBatchFallbackParity: batches far past the incremental
// crossover, at one shard and at many. kws and iso must take
// rebuild-and-diff, and its ΔO must be the oracle's as the repairs' is.
func TestShardedBatchFallbackParity(t *testing.T) {
	t.Parallel()
	mustRebuild(t, runHistory(t, 5, []int{4, 1536, 32}, nil, pick("serial", "inplace")...))
}

// TestClusterMatchesSingleProcess: a store behind a coordinator over two
// in-process workers against one process alone, re-sharded half way.
func TestClusterMatchesSingleProcess(t *testing.T) {
	t.Parallel()
	runHistory(t, 4242, focusSizes, nil, pick("inplace", "cluster")...)
}

// TestClusterDurableCommitVia: a store that commits through a cluster logs
// the WAL a local store logs, byte for byte, and nothing for a rejected
// batch.
func TestClusterDurableCommitVia(t *testing.T) {
	t.Parallel()
	runHistory(t, 777, focusSizes, nil, pick("serial", "cluster")...)
}

// TestClusterCommitMatchesLocal: local stores at one shard and at two
// re-sharded to eight on one history, then a store behind a cluster beside
// the one at one shard on the same history.
func TestClusterCommitMatchesLocal(t *testing.T) {
	t.Parallel()
	t.Run("local", func(t *testing.T) {
		runHistory(t, 7788, focusSizes, nil, pick("inplace", "serial")...)
	})
	t.Run("cluster", func(t *testing.T) {
		runHistory(t, 7788, focusSizes, nil, pick("serial", "cluster")...)
	})
}

// TestRecoveryParity: a store at one shard and at eight, with and without
// a checkpoint, crashed after a commit and between a commit's log and
// apply steps, and recovered in place each time.
func TestRecoveryParity(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 8} {
		for _, checkpoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/checkpoint=%v", shards, checkpoint), func(t *testing.T) {
				runHistory(t, 4242, focusSizes, nil, pick("inplace")[0], shapeSpec{"recovering", shards, recovering(checkpoint)})
			})
		}
	}
}

// TestHAFailoverMatchesUninterruptedRun: a standby fed by its primary's
// apply step and promoted when the primary dies, against a store behind a
// cluster that never failed over.
func TestHAFailoverMatchesUninterruptedRun(t *testing.T) {
	t.Parallel()
	runHistory(t, 6060, focusSizes, nil, pick("cluster", "failover")...)
}

// TestHookedCommitMatchesPlain: a commit through both of ApplyOptions'
// hooks against a plain one.
func TestHookedCommitMatchesPlain(t *testing.T) {
	t.Parallel()
	runHistory(t, 21, focusSizes, nil, pick("inplace", "hooked")...)
}

// TestCrashBetweenLogAndApplyReplays: a store that crashes between a
// commit's log and apply steps replays the logged batch on recovery, and
// then matches one that ran the same history through the hooks uncrashed.
func TestCrashBetweenLogAndApplyReplays(t *testing.T) {
	t.Parallel()
	runHistory(t, 31, focusSizes, nil, pick("hooked", "recovering")...)
}

// FuzzHistory runs the local shapes through a history of the fuzzer's
// choosing: its seed, and the batch sizes history.FuzzSizes decodes. The
// corpus is TestHistory's seed and sizes, capped at 64; plain go test runs
// only that.
func FuzzHistory(f *testing.F) {
	f.Add(int64(200), history.FuzzCorpus)
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte) {
		if len(sizes) == 0 {
			return
		}
		runHistory(t, seed, history.FuzzSizes(sizes), nil, pick("clones", "inplace", "serial", "wide")...)
	})
}
