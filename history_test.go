package incgraph_test

// The root package's one differential harness. A seeded history runs in
// lockstep through every deployment shape incgraph has — engines on
// clones, in place, mixed, serial, wide, behind the serving hooks, crashed
// and recovered, behind a cluster, failed over to a standby — and after
// every step each shape is judged against the reference shape ("clones"
// in TestHistory) for everything a caller can observe, and the reference
// against from-scratch builds on the simulated graph for every class's
// answer and ΔO. The tests after TestHistory each run a short history
// through the few shapes one concern sets side by side.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/graph"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// historyGraph is the graph every history starts from: two labels, half
// the nodes in one giant SCC.
func historyGraph() *incgraph.Graph {
	return incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1200, Labels: 2, GiantSCCFrac: 0.5, Seed: 41,
	})
}

// rowHistory generates batches that are valid against sim in order and
// applies them to sim: deletions, insertions between existing nodes,
// insertions that hang a new node off an existing one — IDs below the
// range (negative), just above it and from 2⁴⁰ up, labeled from the graph's
// alphabet — and pairs that cancel within the batch: an edge inserted and
// deleted again (its new node stays), an edge deleted and put back.
type rowHistory struct {
	rng          *rand.Rand
	sim          *incgraph.Graph
	nodes        []incgraph.NodeID
	labels       []string
	lo, hi, huge incgraph.NodeID
	fresh        int
}

func newRowHistory(g *incgraph.Graph, seed int64) *rowHistory {
	sim := g.Clone()
	nodes := sim.NodesSorted()
	h := &rowHistory{
		rng: rand.New(rand.NewSource(seed)), sim: sim, nodes: nodes,
		lo: min(nodes[0], 0) - 1, hi: nodes[len(nodes)-1] + 1, huge: 1 << 40,
	}
	sim.Labels(func(l string, _ int) bool {
		h.labels = append(h.labels, l)
		return true
	})
	slices.Sort(h.labels)
	return h
}

func (h *rowHistory) freshNode() (incgraph.NodeID, string) {
	var id incgraph.NodeID
	switch h.fresh % 3 {
	case 0:
		id = h.lo
		h.lo--
	case 1:
		id = h.hi
		h.hi++
	default:
		id = h.huge
		h.huge += 1 << 20
	}
	h.fresh++
	h.nodes = append(h.nodes, id)
	return id, h.labels[h.rng.Intn(len(h.labels))]
}

func (h *rowHistory) batch(k int) incgraph.Batch {
	var b incgraph.Batch
	for len(b) < k {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		var us []incgraph.Update
		switch h.rng.Intn(12) {
		case 0, 1, 2, 3:
			succ := h.sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			us = append(us, incgraph.Del(v, succ[h.rng.Intn(len(succ))]))
		case 4:
			id, l := h.freshNode()
			if h.rng.Intn(2) == 0 {
				us = append(us, incgraph.InsNew(v, id, "", l))
			} else {
				us = append(us, incgraph.InsNew(id, v, l, ""))
			}
		case 5:
			if succ := h.sim.SuccessorsSorted(v); len(succ) > 0 && h.rng.Intn(2) == 0 {
				w := succ[h.rng.Intn(len(succ))]
				us = append(us, incgraph.Del(v, w), incgraph.Ins(v, w))
			} else {
				id, l := h.freshNode()
				us = append(us, incgraph.InsNew(v, id, "", l), incgraph.Del(v, id))
			}
		default:
			w := h.nodes[h.rng.Intn(len(h.nodes))]
			if h.sim.HasEdge(v, w) {
				continue
			}
			us = append(us, incgraph.Ins(v, w))
		}
		for _, u := range us {
			if err := h.sim.Apply(u); err != nil {
				panic(err)
			}
		}
		b = append(b, us...)
	}
	return b
}

// badBatch fails on its last update, after a prefix that would have created
// a node and deleted an edge.
func (h *rowHistory) badBatch() incgraph.Batch {
	for {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		if succ := h.sim.SuccessorsSorted(v); len(succ) > 0 {
			return incgraph.Batch{
				incgraph.InsNew(v, h.huge+1, "", h.labels[0]),
				incgraph.Del(v, succ[0]),
				incgraph.Del(h.huge+1, h.huge+2),
			}
		}
	}
}

// rowEngine is one class's engine as the tests drive it: the adapter, the
// engine's own audit of its state, its work meter, and — for kws and iso,
// which have a rebuild-and-diff path — the cost model's last verdict.
type rowEngine struct {
	m        incgraph.Maintained
	audit    func() error
	meter    *cost.Meter
	estimate func() cost.Estimate
}

// rebuilt reports whether the engine's last repair took rebuild-and-diff.
func (e rowEngine) rebuilt() bool { return e.estimate != nil && e.estimate().PreferBatch() }

// classes is the order every store attaches its engines in.
var classes = []string{"kws", "rpq", "scc", "iso"}

// builders builds each class's engine on a graph, by class.
type builders map[string]func(g *incgraph.Graph) rowEngine

// classes returns the classes b builds, in classes order.
func (b builders) classes() []string {
	return slices.DeleteFunc(slices.Clone(classes), func(class string) bool { return b[class] == nil })
}

// rowEngines returns the one builder of every class's engine, with the
// queries all the tests fix on a graph derived from seed. The builders may
// run on any goroutine: with the queries valid, a build cannot fail.
func rowEngines(t *testing.T, seed *incgraph.Graph) (builders, incgraph.KWSQuery) {
	kwsQ, err := incgraph.RandomKWSQuery(seed, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	pg := incgraph.NewGraph()
	pg.AddNode(0, "l0")
	pg.AddNode(1, "l0")
	pg.AddNode(2, "l0")
	pg.AddEdge(0, 1)
	pg.AddEdge(0, 2)
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	return builders{
		"kws": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			ix, err := kws.Build(g, kwsQ, meter)
			if err != nil {
				panic(err)
			}
			return rowEngine{incgraph.MaintainKWS(ix), ix.Check, meter, ix.LastEstimate}
		},
		"rpq": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			e, err := rpq.Parse(g, "l0.l1*.l0", meter)
			if err != nil {
				panic(err)
			}
			return rowEngine{incgraph.MaintainRPQ(e), e.Check, meter, nil}
		},
		"scc": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			st := scc.Build(g, meter)
			return rowEngine{incgraph.MaintainSCC(st), st.CheckInvariants, meter, nil}
		},
		"iso": func(g *incgraph.Graph) rowEngine {
			meter := new(cost.Meter)
			ix := iso.Build(g, pat, meter)
			return rowEngine{incgraph.MaintainISO(ix), ix.Check, meter, ix.LastEstimate}
		},
	}, kwsQ
}

// attachInPlace builds every class's engine build has on d's own graph,
// the way incgraphd attaches its engines, and attaches them in classes
// order: Attach takes any adapter built on the store's graph.
func attachInPlace(d *incgraph.Durable, build builders) map[string]rowEngine {
	engines := make(map[string]rowEngine, len(build))
	for _, class := range build.classes() {
		e := build[class](d.Graph())
		if err := d.Attach(e.m); err != nil {
			panic(err)
		}
		engines[class] = e
	}
	return engines
}

// answer renders the engine's answer: WriteAnswer's bytes.
func (e rowEngine) answer() string {
	var buf bytes.Buffer
	if err := e.m.WriteAnswer(&buf); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.String()
}

// observe renders everything a commit leaves behind in one engine that a
// caller can see: ΔO row by row, the answer, the work metered since build,
// the cost model's verdict — less the shards ΔG touched, which depends on
// the shard count.
func (e rowEngine) observe() string {
	est := "none"
	if e.estimate != nil {
		v := e.estimate()
		v.TouchedShards = 0
		est = v.String()
	}
	return "ΔO:\n" + renderLastDelta(e.m) + "answer:\n" + e.answer() + "meter: " + e.meter.String() + "\nestimate: " + est + "\n"
}

// sansMeter drops observe's meter line: an engine a recovery rebuilt has
// metered its build and the replay, not the history's repairs.
func sansMeter(obs string) string {
	i := strings.LastIndex(obs, "meter: ")
	return obs[:i] + obs[i+strings.IndexByte(obs[i:], '\n')+1:]
}

// renderLastDelta renders the ΔO an adapter holds row by row, one line
// each: "-" and the row for one that left Q(G), "+" for one that entered.
func renderLastDelta(m incgraph.Maintained) string {
	ra := m.(incgraph.RowAnswer)
	var out []byte
	ra.LastDelta().Each(func(row []incgraph.NodeID, gone bool) {
		sign := byte('+')
		if gone {
			sign = '-'
		}
		out = ra.AppendRow(append(out, sign), row)
	})
	return string(out)
}

// firstDiff returns the first line at which two observations part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// oracle holds every class's answer as rows, built from scratch on the
// simulated graph as the history last left it.
type oracle struct {
	build builders
	rows  map[string]incgraph.Rows
}

func newOracle(build builders, sim *incgraph.Graph) *oracle {
	o := &oracle{build, make(map[string]incgraph.Rows, len(build))}
	for class := range build {
		o.rows[class] = o.build[class](sim.Clone()).m.(incgraph.RowAnswer).Rows()
	}
	return o
}

// check rebuilds every class from scratch on sim and holds the engines'
// last ΔO to the keyed diff of the builds before and after: folded onto
// the old answer it renders the new one, byte for byte, and it names no
// key whose row is the same in both. The engines' answers must be the new
// builds' too.
func (o *oracle) check(t *testing.T, step int, sim *incgraph.Graph, engines map[string]rowEngine) {
	t.Helper()
	for class, e := range engines {
		fresh := o.build[class](sim.Clone())
		ra := fresh.m.(incgraph.RowAnswer)
		was, now := o.rows[class], ra.Rows()
		d := e.m.(incgraph.RowAnswer).LastDelta()
		var folded []byte
		incgraph.MergeRows(ra, was, []incgraph.RowDelta{d}, func(row []incgraph.NodeID) { folded = ra.AppendRow(folded, row) })
		want := fresh.answer()
		if string(folded) != want {
			t.Fatalf("step %d: %s: the old answer ⊕ ΔO is not a fresh build's: %s", step, class, firstDiff(string(folded), want))
		}
		if got := e.answer(); got != want {
			t.Fatalf("step %d: %s answers differently from a fresh build: %s", step, class, firstDiff(got, want))
		}
		d.Each(func(row []incgraph.NodeID, gone bool) {
			before, after := rowOf(ra, was, row), rowOf(ra, now, row)
			if before == nil && after == nil || before != nil && after != nil && slices.Equal(before, after) {
				t.Fatalf("step %d: %s: ΔO names %v, whose row did not change", step, class, row)
			}
		})
		o.rows[class] = now
	}
}

// rowOf returns the row of rows with row's key, or nil.
func rowOf(ra incgraph.RowAnswer, rows incgraph.Rows, row []incgraph.NodeID) []incgraph.NodeID {
	i := sort.Search(rows.Len(), func(i int) bool { return ra.CompareRows(rows.At(i), row) >= 0 })
	if i < rows.Len() && ra.CompareRows(rows.At(i), row) == 0 {
		return rows.At(i)
	}
	return nil
}

// shape is one deployment the history runs through: a store, the engines
// attached to it, and how a batch reaches it.
type shape struct {
	name    string
	dir     string
	d       *incgraph.Durable
	engines map[string]rowEngine
	shards  int
	// resharded is set once the store's graph went from 2 shards to 8.
	resharded bool
	// cl is the coordinator commits go through, nil for a local store.
	cl *incgraph.Cluster
	// reborn is set once a recovery rebuilt the engines.
	reborn bool
	// logsAll is cleared on a shape whose WAL is not one record per
	// commit of the history: it checkpoints, or crashes.
	logsAll bool
	// commit commits b, the history's step-th batch or a rejected one.
	commit func(step int, b incgraph.Batch) ([]incgraph.DeltaSummary, error)
}

// history is one run of the harness: the first graph, the builder and the
// length of the history.
type history struct {
	t *testing.T
	// g is the first graph at 4 shards, a count no shape runs at; at holds
	// it re-sharded once per shard count a shape starts at.
	g     *incgraph.Graph
	at    map[int]*incgraph.Graph
	build builders
	steps int
}

// shapeSpec names a deployment, the shard count its store starts at, and
// how the shape is set up on that store.
type shapeSpec struct {
	name   string
	shards int
	open   func(hs *history, s *shape)
}

// shapes are the deployments, each opened on a store of its shard count.
// Every shape but "clones" attaches its engines in place, as incgraphd
// does; those at 2 shards re-shard to 8 half way through the history.
var shapes = []shapeSpec{
	// The reference: every engine on a clone of its own, advanced by its
	// own Apply — the path perf/ measures.
	{"clones", 2, func(hs *history, s *shape) {
		for _, class := range hs.build.classes() {
			hs.attach(s, class, s.d.Graph().Clone())
		}
	}},
	{"inplace", 2, func(hs *history, s *shape) { s.engines = attachInPlace(s.d, hs.build) }},
	// kws in place beside scc on a clone.
	{"mixed", 2, func(hs *history, s *shape) {
		hs.attach(s, "kws", s.d.Graph())
		hs.attach(s, "scc", s.d.Graph().Clone())
	}},
	{"serial", 1, func(hs *history, s *shape) {
		s.d.Graph().SetParallelism(1)
		s.engines = attachInPlace(s.d, hs.build)
	}},
	// Every loop starts all of its helpers before its first iteration.
	{"wide", 2, func(hs *history, s *shape) {
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
	{"cluster", 8, func(hs *history, s *shape) {
		s.engines = attachInPlace(s.d, hs.build)
		links, _, stop := incgraph.InProcessLinks(2)
		hs.t.Cleanup(stop)
		s.cl = hs.cluster(s.d.Graph(), links)
	}},
	{"failover", 8, openFailover},
}

// attach builds class's engine on g and attaches it to s's store.
func (hs *history) attach(s *shape, class string, g *incgraph.Graph) {
	e := hs.build[class](g)
	if err := s.d.Attach(e.m); err != nil {
		hs.t.Fatal(err)
	}
	s.engines[class] = e
}

// cluster attaches the linked workers to g under a coordinator the test
// closes.
func (hs *history) cluster(g *incgraph.Graph, links []incgraph.ClusterLink, opts ...incgraph.ClusterOption) *incgraph.Cluster {
	cl, err := incgraph.NewCluster(g, links, opts...)
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

// open creates the shape's store on a copy of the first graph at the
// shape's shard count. The shapes at one shard count share a slot layout,
// and every store's generation moved once on the way in.
func (hs *history) open(spec shapeSpec) *shape {
	t := hs.t
	base, ok := hs.at[spec.shards]
	if !ok {
		base = hs.g.Clone()
		base.SetShards(spec.shards)
		hs.at[spec.shards] = base
	}
	g := base.Clone()
	s := &shape{name: spec.name, dir: t.TempDir(), engines: map[string]rowEngine{}, shards: spec.shards, logsAll: true}
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
func openHooked(hs *history, s *shape) {
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
func recovering(checkpoint bool) func(hs *history, s *shape) {
	return func(hs *history, s *shape) { openRecovering(hs, s, checkpoint) }
}

func openRecovering(hs *history, s *shape, checkpoint bool) {
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
// the store, attaches the engines in place on the graph it loaded and
// replays the log.
func (hs *history) reopen(s *shape) {
	t := hs.t
	s.d.Close()
	d, err := incgraph.OpenDurable(s.dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	d.Graph().SetShards(s.shards)
	s.engines = attachInPlace(d, hs.build)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	s.d, s.reborn = d, true
}

// openFailover is a primary behind a cluster whose apply step feeds a hub,
// and a standby tailing it that, like incgraphd's, seeds a store of its own
// from the handshake snapshot, attaches its engines in place and commits
// every fed record to it. Half way through the history the primary dies
// without ceremony; the standby is promoted at term+1 over the same
// workers, and the deposed primary's late commit bounces off the fence.
func openFailover(hs *history, s *shape) {
	t := hs.t
	s.engines = attachInPlace(s.d, hs.build)
	s.logsAll = false
	primary := s.d
	links, _, stop := incgraph.InProcessLinks(2)
	t.Cleanup(stop)
	hub := incgraph.NewClusterHub(incgraph.ClusterHubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
			snap, err := incgraph.EncodeSnapshot(primary.Graph())
			return 0, primary.Generation(), snap, err
		},
	})
	var standby *incgraph.Durable
	var standbyEngines map[string]rowEngine
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
			if err := d.Recover(); err != nil {
				return err
			}
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
	s.cl = hs.cluster(primary.Graph(), links, incgraph.WithClusterTerm(1))
	deposed := s.cl

	s.commit = func(step int, b incgraph.Batch) ([]incgraph.DeltaSummary, error) {
		if s.d != primary {
			return s.d.Commit(b, incgraph.ApplyOptions{Via: s.cl})
		}
		sums, err := s.d.Commit(b, incgraph.ApplyOptions{Via: s.cl, Exclusive: func(apply func() error) error {
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
		// The primary dies: its feed is severed and its coordinator
		// abandoned un-Closed, worker sessions still open.
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
		promoted := make([]incgraph.ClusterLink, len(links))
		for i, l := range links {
			conn, err := l.Redial()
			if err != nil {
				t.Fatal(err)
			}
			promoted[i] = incgraph.ClusterLink{Conn: conn, Name: l.Name, Redial: l.Redial}
		}
		s.d, s.engines = standby, standbyEngines
		s.cl = hs.cluster(standby.Graph(), promoted, incgraph.WithClusterTerm(st.Term()+1))
		late := newRowHistory(primary.Graph(), int64(step)).batch(20)
		gen, wal := primary.Generation(), primary.WALBytes()
		if _, err := primary.Commit(late, incgraph.ApplyOptions{Via: deposed}); err == nil || !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("the deposed primary's late commit: %v, want fenced", err)
		}
		if primary.Generation() != gen || primary.WALBytes() != wal {
			t.Fatal("the deposed primary's fenced commit moved its store")
		}
		return sums, nil
	}
}

// runHistory drives one seeded history — a batch of each of sizes, a
// rejected batch before every third — through the shapes in lockstep,
// each with an engine of every class in only (of all four if only is nil).
// The first shape is the reference, and must not recover: a rebuilt
// engine's ΔO is the replay's. It fails the test at the first step a shape
// parts from the reference or the reference from the oracle, and returns
// how often each class took rebuild-and-diff.
func runHistory(t *testing.T, seed int64, sizes []int, only []string, specs ...shapeSpec) map[string]int {
	hs := &history{t: t, g: historyGraph(), at: map[int]*incgraph.Graph{}, steps: len(sizes)}
	hs.g.SetShards(4)
	var kwsQ incgraph.KWSQuery
	hs.build, kwsQ = rowEngines(t, hs.g)
	if only != nil {
		maps.DeleteFunc(hs.build, func(class string, _ func(*incgraph.Graph) rowEngine) bool { return !slices.Contains(only, class) })
	}
	all := make([]*shape, len(specs))
	for i, spec := range specs {
		all[i] = hs.open(spec)
	}
	ref := all[0]
	h := newRowHistory(hs.g, seed)
	o := newOracle(hs.build, h.sim)
	rebuilds := map[string]int{}
	for step, size := range sizes {
		if step == hs.steps/2 {
			for _, s := range all {
				if s.shards == 2 {
					s.shards, s.resharded = 8, true
					s.d.Graph().SetShards(8)
					for _, e := range s.engines {
						e.m.Graph().SetShards(8)
					}
				}
			}
		}
		if step%3 == 0 {
			bad := h.badBatch()
			for _, s := range all {
				before := map[string]string{}
				for class, e := range s.engines {
					before[class] = e.observe()
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
					if got := e.observe(); got != before[class] {
						t.Fatalf("step %d, %s: a rejected batch moved %s: %s", step, s.name, class, firstDiff(got, before[class]))
					}
				}
			}
		}
		preV, preE := h.sim.NumNodes(), h.sim.NumEdges()
		b := h.batch(size)
		sums := make([][]incgraph.DeltaSummary, len(all))
		for i, s := range all {
			var err error
			if sums[i], err = s.commit(step, b); err != nil {
				t.Fatalf("step %d, %s: %v", step, s.name, err)
			}
		}
		o.check(t, step, h.sim, ref.engines)
		refSums := map[string]incgraph.DeltaSummary{}
		for j, m := range ref.d.Engines() {
			refSums[m.Class()] = sums[0][j]
		}
		want := map[string]string{}
		for class, e := range ref.engines {
			want[class] = e.observe()
			if e.rebuilt() {
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
				if errs[i] = s.check(h.sim, len(kwsQ.Keywords)*(preV+preE)); errs[i] == nil && i > 0 {
					errs[i] = s.matches(sums[i], refSums, want)
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
	}
	verifyClusters(t, all)
	// SetShards reissues slots in node-map order, so two graphs re-sharded
	// apart hold their nodes in different slots. Every snapshot decodes to
	// the history's graph; the shapes born at 8 shards share one slot
	// layout, and so one snapshot's bytes. SetShards also moves the
	// generation every WAL record is stamped with: the shapes that logged
	// every commit share one WAL's bytes with those that re-sharded alike.
	var snap0 []byte
	wal0 := map[bool][]byte{}
	for _, s := range all {
		snap, err := incgraph.EncodeSnapshot(s.d.Graph())
		if err != nil {
			t.Fatal(err)
		}
		if g, err := incgraph.DecodeSnapshot(snap); err != nil || !g.Equal(h.sim) {
			t.Fatalf("%s: the snapshot does not decode to the history's graph (%v)", s.name, err)
		}
		if s.shards == 8 && !s.resharded {
			if snap0 == nil {
				snap0 = snap
			} else if !bytes.Equal(snap, snap0) {
				t.Fatalf("%s: the snapshot differs from the other shapes' born at 8 shards", s.name)
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
			if want, ok := wal0[s.resharded]; !ok {
				wal0[s.resharded] = wal
			} else if !bytes.Equal(wal, want) {
				t.Fatalf("%s: the WAL differs from the other shapes' that re-sharded alike (%d bytes, %d)", s.name, len(wal), len(want))
			}
		}
	}
	return rebuilds
}

// check holds s, after a step, to the simulated graph and every engine's
// audit, and kws' estimate to a batch build priced at batchCost.
func (s *shape) check(sim *incgraph.Graph, batchCost int) error {
	if !s.d.Graph().Equal(sim) {
		return fmt.Errorf("%s: the store's graph diverged from the simulated history", s.name)
	}
	for class, e := range s.engines {
		if err := e.audit(); err != nil {
			return fmt.Errorf("%s: %s audit: %v", s.name, class, err)
		}
	}
	if e, ok := s.engines["kws"]; ok {
		if est := e.estimate(); est.BatchCost != batchCost {
			return fmt.Errorf("%s: kws estimated a batch build at %d, want %d: keywords × (|V| + |E|) of the pre-state", s.name, est.BatchCost, batchCost)
		}
	}
	return nil
}

// matches holds s's summaries of a step (nil when a crash took them) and
// what its engines show to the reference's: an engine a recovery rebuilt
// is held to all but its meter.
func (s *shape) matches(sums []incgraph.DeltaSummary, ref map[string]incgraph.DeltaSummary, want map[string]string) error {
	for j, m := range s.d.Engines() {
		if r := ref[m.Class()]; sums != nil && sums[j] != r {
			return fmt.Errorf("%s: %s summary %v, the reference's %v", s.name, m.Class(), sums[j], r)
		}
	}
	for class, e := range s.engines {
		got, want := e.observe(), want[class]
		if s.reborn {
			got, want = sansMeter(got), sansMeter(want)
		}
		if got != want {
			return fmt.Errorf("%s: %s differs from the reference: %s", s.name, class, firstDiff(got, want))
		}
	}
	return nil
}

// verifyClusters requires every worker replica of every shape behind a
// cluster to match its coordinator's segments, with no remote error
// recorded.
func verifyClusters(t *testing.T, all []*shape) {
	t.Helper()
	for _, s := range all {
		if s.cl == nil {
			continue
		}
		if err := s.cl.VerifyAll(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if n := s.cl.RemoteErrors(); n != 0 {
			t.Fatalf("%s: %d remote errors", s.name, n)
		}
	}
}

// historySizes is one round of TestHistory's batches: 1 to 1536, the
// large ones taking kws' and iso's rebuild-and-diff path.
var historySizes = []int{1, 4, 32, 1536, 32, 4, 1, 32}

// focusSizes are the batches of the tests that hold one concern to the
// harness: none large enough for rebuild-and-diff, which
// TestShardedBatchFallbackParity and TestHistory reach.
var focusSizes = []int{4, 64, 32, 64}

// TestHistory runs the seeded history — two rounds of historySizes, one
// with -short — through all nine shapes. After every step each shape must
// report the reference's summaries and show what it shows (ΔO rows in
// order, answer bytes, metered work, cost-model verdict), hold the
// simulated graph, keep every engine's audit green, and have let a
// rejected batch move nothing; the reference's ΔO must be the keyed diff
// of from-scratch builds. The cluster replicas verify clean half way and
// at the end, when the WALs of the shapes that neither checkpointed nor
// crashed are byte-identical among those that re-sharded alike, and the
// snapshots of those born at 8 shards are too.
func TestHistory(t *testing.T) {
	t.Parallel()
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	var steps []int
	for range rounds {
		steps = append(steps, historySizes...)
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
	for _, class := range classes {
		t.Run(class, func(t *testing.T) {
			runHistory(t, 42, focusSizes, []string{class}, pick("serial", "wide")...)
		})
	}
}

// TestShardedMatchesUnsharded: each class alone on its store, the graph at
// one shard and at two re-sharded to eight.
func TestShardedMatchesUnsharded(t *testing.T) {
	t.Parallel()
	for _, class := range classes {
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
// choosing: its seed, and one batch of 1 + b%64 updates per byte b (at
// most 16 batches). The corpus is TestHistory's seed and sizes, capped at
// 64; plain go test runs only that.
func FuzzHistory(f *testing.F) {
	f.Add(int64(200), []byte{0, 3, 31, 63, 31, 3, 0, 31})
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte) {
		if len(sizes) == 0 {
			return
		}
		ks := make([]int, min(len(sizes), 16))
		for i := range ks {
			ks[i] = 1 + int(sizes[i])%64
		}
		runHistory(t, seed, ks, nil, pick("clones", "inplace", "serial", "wide")...)
	})
}
