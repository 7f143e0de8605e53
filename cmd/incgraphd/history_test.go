package main

// The root package's seeded history (internal/history) driven through the
// daemon over the wire, and held to the same from-scratch oracle
// (internal/history/oracle) TestHistory holds the library to. One writer
// stages and commits the history while readers on connections of their
// own read every class; each reply names the generation it was served at,
// and once the writer's last ack is in, every generation maps to a step of
// the history: a reply must be what from-scratch builds answer at that
// step, must not be older than a commit acked before it was sent, and must
// not go back in time on its connection. The daemons run in-process (run / runStandby), so the race
// detector sees publisher and readers together.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/history"
	"incgraph/internal/history/oracle"
	"incgraph/internal/wire"
)

// historyConfig writes the history's first graph and ISO pattern under dir
// and returns a daemon config standing the history's four queries, with
// its store under dir.
func historyConfig(t *testing.T, dir string) config {
	t.Helper()
	g := oracle.Graph()
	_, q := oracle.Engines(g)
	graphPath, patPath := filepath.Join(dir, "seed.snap"), filepath.Join(dir, "pattern.txt")
	if err := incgraph.WriteSnapshotFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	pf, err := os.Create(patPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := incgraph.WriteGraph(pf, q.Pattern); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	return config{
		storeDir: filepath.Join(dir, "store"), graphPath: graphPath, addr: "127.0.0.1:0", fsync: "none", term: 1,
		kwsQuery: strings.Join(q.KWS.Keywords, ","), bound: q.KWS.Bound,
		rpqQuery: q.RPQ, isoPath: patPath, scc: true,
	}
}

// standbyArgs are runStandby's flags for a replica of cfg's primary, whose
// hub is at hub, with its store in dir.
func standbyArgs(cfg config, hub, dir string, extra ...string) []string {
	return append([]string{
		"-primary", hub, "-store", dir, "-addr", "127.0.0.1:0", "-fsync", "none",
		"-kws", cfg.kwsQuery, "-bound", fmt.Sprint(cfg.bound), "-rpq", cfg.rpqQuery, "-iso", cfg.isoPath, "-scc",
	}, extra...)
}

// reading is what a read of one class returns, its answer as a digest.
type reading struct {
	size   int
	answer [32]byte
}

// wireStep is one step of the history as the daemon takes it: a batch
// that must be rejected (nil if none), then the batch, then what the
// oracle reads after it.
type wireStep struct {
	bad, batch incgraph.Batch
	want       map[string]reading
}

// wireHistory is one seeded history, the classes whose engines took
// rebuild-and-diff on it, and the generations the daemon acked it at:
// gens[0] is the one it started at, gens[i+1] step i's.
type wireHistory struct {
	start   map[string]reading
	steps   []wireStep
	rebuilt map[string]bool
	gens    []uint64
	acked   atomic.Uint64
}

// newWireHistory generates the history of seed and sizes, reads the oracle
// after every step, and runs a set of engines of its own along it.
func newWireHistory(seed int64, sizes []int) *wireHistory {
	g := oracle.Graph()
	build, _ := oracle.Engines(g)
	h := history.New(g, seed)
	o := oracle.New(build, h.Sim)
	engines := make(map[string]oracle.Engine, len(build))
	for class, mk := range build {
		engines[class] = mk(g.Clone())
	}
	read := func() map[string]reading {
		m := make(map[string]reading, len(oracle.Classes))
		for _, class := range oracle.Classes {
			size, answer := o.Read(class)
			m[class] = reading{size, sha256.Sum256([]byte(answer))}
		}
		return m
	}
	w := &wireHistory{start: read(), rebuilt: make(map[string]bool)}
	for i, size := range sizes {
		var st wireStep
		if i%3 == 0 {
			st.bad = h.BadBatch()
		}
		st.batch = h.Batch(size)
		for class, e := range engines {
			if _, err := e.M.Apply(st.batch); err != nil {
				panic(err)
			}
			w.rebuilt[class] = w.rebuilt[class] || e.Rebuilt()
		}
		o.Advance(h.Sim)
		st.want = read()
		w.steps = append(w.steps, st)
	}
	return w
}

// begin records the generation the daemon at c starts the history at.
func (w *wireHistory) begin(t *testing.T, c *wire.Client) {
	t.Helper()
	gen := query(t, c, "scc").Gen
	w.gens = []uint64{gen}
	w.acked.Store(gen)
}

// write stages and commits steps [from, to) through c, checkpointing after
// step ckpt (none if ckpt < 0). A rejected batch must come back "err
// staged" and leave the generation where it was; each good commit's ack
// raises acked.
func (w *wireHistory) write(t *testing.T, c *wire.Client, from, to, ckpt int) {
	t.Helper()
	for i := from; i < to; i++ {
		st := w.steps[i]
		if st.bad != nil {
			noErr(t, c.Stage(st.bad))
			refused(t, c, "commit", "err staged: commit failed")
			if r, err := c.Query("scc"); err != nil || r.Gen != w.acked.Load() {
				t.Fatalf("step %d: after a rejected batch the daemon is at gen %d, acked %d (%v)", i, r.Gen, w.acked.Load(), err)
			}
		}
		noErr(t, c.Stage(st.batch))
		ack := must(t, c.Commit)
		if ack.Gen <= w.acked.Load() {
			t.Fatalf("step %d: commit acked gen %d after gen %d was acked", i, ack.Gen, w.acked.Load())
		}
		w.gens = append(w.gens, ack.Gen)
		w.acked.Store(ack.Gen)
		if i == ckpt {
			must(t, c.Checkpoint)
		}
	}
}

// reply is one read as a reader saw it: the newest generation acked when
// it was sent (0 when the reader keeps no floor), and what came back. A
// query's reply has no answer.
type reply struct {
	floor, gen uint64
	class      string
	size       int
	answer     *[32]byte
}

// readers starts n readers on addr, each on a connection of its own,
// reading every class in turn, an answer every third read and a query
// otherwise, until the returned stop (or the end of the test), and then
// once more each. With floor set, a reply records floor's value when its
// read was sent. stop returns every reader's replies, in order.
func readers(t *testing.T, addr string, n int, floor *atomic.Uint64) (stop func() [][]reply) {
	t.Helper()
	done := make(chan struct{})
	got := make([][]reply, n)
	var wg sync.WaitGroup
	for r := range got {
		c := dial(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			left := -1 // reads left once done is closed: one per class
			for op := r; left != 0; op++ {
				if left < 0 {
					select {
					case <-done:
						left = len(oracle.Classes)
					default:
					}
				} else {
					left--
				}
				rp := reply{class: oracle.Classes[op%len(oracle.Classes)]}
				if floor != nil {
					rp.floor = floor.Load()
				}
				var read wire.Read
				var rows []byte
				var err error
				if op%3 == 0 {
					read, rows, err = c.Answer(rp.class)
					sum := sha256.Sum256(rows)
					rp.answer = &sum
				} else {
					read, err = c.Query(rp.class)
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				rp.gen, rp.size = read.Gen, read.Size
				got[r] = append(got[r], rp)
			}
		}()
	}
	// A test that fails half way stops its readers before its daemons.
	stop = sync.OnceValue(func() [][]reply {
		close(done)
		wg.Wait()
		return got
	})
	t.Cleanup(func() { stop() })
	return stop
}

// check holds every connection's replies to the oracle at the step their
// generation ended, to their floors, and to their connection's order, and
// returns the generations served.
func (w *wireHistory) check(t *testing.T, conns [][]reply) map[uint64]bool {
	t.Helper()
	want := make(map[uint64]map[string]reading, len(w.gens))
	want[w.gens[0]] = w.start
	for i, gen := range w.gens[1:] {
		want[gen] = w.steps[i].want
	}
	seen := make(map[uint64]bool)
	for r, replies := range conns {
		var last uint64
		for _, rp := range replies {
			wr, ok := want[rp.gen][rp.class]
			switch {
			case !ok:
				t.Fatalf("reader %d: %s served at gen %d, which no commit ended on", r, rp.class, rp.gen)
			case rp.gen < rp.floor:
				t.Fatalf("reader %d: %s served at gen %d after gen %d was acked", r, rp.class, rp.gen, rp.floor)
			case rp.gen < last:
				t.Fatalf("reader %d: %s served at gen %d after this connection read gen %d", r, rp.class, rp.gen, last)
			case rp.size != wr.size:
				t.Fatalf("reader %d: %s at gen %d: size %d, from-scratch %d", r, rp.class, rp.gen, rp.size, wr.size)
			case rp.answer != nil && *rp.answer != wr.answer:
				t.Fatalf("reader %d: %s at gen %d: the answer is not a from-scratch build's", r, rp.class, rp.gen)
			}
			last = rp.gen
			seen[rp.gen] = true
		}
	}
	return seen
}

// TestDaemonHistory runs the seeded history through a daemon at the default
// shard count and through one whose seed snapshot is at four shards.
func TestDaemonHistory(t *testing.T) {
	for _, shape := range []string{"single", "sharded"} {
		t.Run(shape, func(t *testing.T) { daemonHistory(t, shape) })
	}
}

// TestLinearizableStandbyReads runs the seeded history through a primary
// whose standby is promoted half way (standbyHistory).
func TestLinearizableStandbyReads(t *testing.T) { daemonHistory(t, "standby") }

// historySizes is two rounds of history.Sizes.
var historySizes = append(slices.Clone(history.Sizes), history.Sizes...)

// daemonHistory runs the seeded history — historySizes, a rejected batch
// before every third — through shape. The history must test something:
// every class answers non-empty throughout and moves on at least 3 steps,
// and kws and iso take rebuild-and-diff. Readers must have seen the
// writer's commits land, and a chain must have been folded under them.
func daemonHistory(t *testing.T, shape string) {
	w := newWireHistory(200, historySizes)
	for _, class := range oracle.Classes {
		moves, was := 0, w.start[class]
		for i, st := range w.steps {
			now := st.want[class]
			if was.size == 0 || now.size == 0 {
				t.Fatalf("around step %d, %s answers nothing", i, class)
			}
			if now != was {
				moves++
			}
			was = now
		}
		if moves < 3 {
			t.Fatalf("%s's answer moved on %d steps", class, moves)
		}
	}
	if !w.rebuilt["kws"] || !w.rebuilt["iso"] {
		t.Fatalf("kws and iso must take rebuild-and-diff; taken: %v", w.rebuilt)
	}
	gens, folds := runDaemonHistory(t, shape, w)
	if gens < 3 {
		t.Fatalf("readers saw %d generations: they did not overlap the writer", gens)
	}
	if folds == 0 {
		t.Fatal("no chain was folded during the history")
	}
}

// TestStandbyAutoCheckpoints commits the seeded history through a primary
// that never checkpoints while a replica at -checkpoint-bytes 2048 tails
// it, one record at a time. The replica must checkpoint on its own — its
// epoch rises and its WAL shrinks — while the primary stays at epoch 1,
// and it must then answer what from-scratch builds do at the last step.
func TestStandbyAutoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := historyConfig(t, dir)
	cfg.hubAddr = "127.0.0.1:0"
	w := newWireHistory(200, historySizes)
	primaryAddr, hubAddr, _ := serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })
	standbyAddr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error {
		return runStandby(standbyArgs(cfg, hubAddr, filepath.Join(dir, "store-standby"), "-ttl", "5s", "-checkpoint-bytes", "2048"), stop)
	})
	pc, sc := dial(t, primaryAddr), dial(t, standbyAddr)
	w.begin(t, pc)
	fell, last := 0, uint64(0)
	for i := range w.steps {
		w.write(t, pc, i, i+1, -1)
		// tail_seq moves once the feed apply has returned, after any
		// checkpoint it led to.
		for deadline := time.Now().Add(20 * time.Second); statField(t, sc, "tail_seq") != uint64(i+1); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the replica never applied feed record %d", i+1)
			}
		}
		now := statField(t, sc, "walbytes")
		if now < last {
			fell++
		}
		last = now
	}
	if e := statField(t, pc, "epoch"); e != 1 {
		t.Fatalf("the primary never checkpoints, and is at epoch %d", e)
	}
	if wb := statField(t, pc, "walbytes"); wb <= 2048 {
		t.Fatalf("the history logged %d bytes: too short to cross the replica's threshold", wb)
	}
	if e := statField(t, sc, "epoch"); e <= 1 || fell == 0 {
		t.Fatalf("the replica at -checkpoint-bytes 2048 is at epoch %d and its walbytes fell %d times", e, fell)
	}
	w.check(t, [][]reply{answersAt(t, sc, w.acked.Load())})
}

// answersAt reads every class's answer at c until it is served at gen, as
// replies with gen for their floor.
func answersAt(t *testing.T, c *wire.Client, gen uint64) []reply {
	t.Helper()
	var got []reply
	for _, class := range oracle.Classes {
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			read, rows, err := c.Answer(class)
			if err != nil {
				t.Fatal(err)
			}
			if read.Gen == gen {
				sum := sha256.Sum256(rows)
				got = append(got, reply{floor: gen, gen: gen, class: class, size: read.Size, answer: &sum})
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s at gen %d never reached gen %d", class, read.Gen, gen)
			}
		}
	}
	return got
}

// FuzzDaemonHistory runs a single daemon through FuzzHistory's input: a
// seed and the batch sizes history.FuzzSizes decodes.
func FuzzDaemonHistory(f *testing.F) {
	f.Add(int64(200), history.FuzzCorpus)
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte) {
		if len(sizes) == 0 {
			return
		}
		runDaemonHistory(t, "single", newWireHistory(seed, history.FuzzSizes(sizes)))
	})
}

// runDaemonHistory drives the history w through shape. A
// daemon that takes the writer checkpoints a quarter of the way through,
// and readers run on it the whole time; at the end every reply must match
// the oracle and a reader must have seen the last generation. It returns
// how many generations the readers saw and how many chains the last
// daemon's view folded.
func runDaemonHistory(t *testing.T, shape string, w *wireHistory) (gens, folds int) {
	dir := t.TempDir()
	cfg := historyConfig(t, dir)
	var conns [][]reply
	var addr string
	switch shape {
	case "single", "sharded":
		if shape == "sharded" {
			// A store keeps the shard count of the snapshot it starts from.
			g := oracle.Graph()
			g.SetShards(4)
			if err := incgraph.WriteSnapshotFile(cfg.graphPath, g); err != nil {
				t.Fatal(err)
			}
		}
		addr, _, _ = serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })
		c := dial(t, addr)
		w.begin(t, c)
		stop := readers(t, addr, 4, &w.acked)
		w.write(t, c, 0, len(w.steps), len(w.steps)/4)
		conns = stop()
	case "standby":
		addr, conns = standbyHistory(t, cfg, w)
	}
	seen := w.check(t, conns)
	t.Logf("readers saw %d of %d generations", len(seen), len(w.gens))
	if last := w.gens[len(w.gens)-1]; !seen[last] {
		t.Fatalf("no reader saw the last generation, %d", last)
	}
	return len(seen), int(statField(t, dial(t, addr), "view_folds"))
}

// standbyHistory is the standby shape: a primary with a hub, and a replica
// at -checkpoint-bytes 2048 tailing it. The first half of the history goes
// through the primary, which never checkpoints, with readers on the live
// replica and no floor (the feed is asynchronous); a second replica
// attaches two commits in, while the writer goes on, and must serve the
// oracle's answers with its tail live once the writer is quiet. Then the
// primary stops, the replica notices, is promoted, and takes the rest of
// the history under the full check. It returns the promoted replica's
// address and every reply read.
func standbyHistory(t *testing.T, cfg config, w *wireHistory) (string, [][]reply) {
	dir, half := filepath.Dir(cfg.storeDir), len(w.steps)/2
	cfg.hubAddr = "127.0.0.1:0"
	primaryAddr, hubAddr, stopPrimary := serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })
	standbyAddr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error {
		return runStandby(standbyArgs(cfg, hubAddr, filepath.Join(dir, "store-standby"), "-ttl", "1s", "-checkpoint-bytes", "2048"), stop)
	})
	pc, sc := dial(t, primaryAddr), dial(t, standbyAddr)
	w.begin(t, pc)
	stopLive := readers(t, standbyAddr, 4, nil)
	w.write(t, pc, 0, min(2, half), -1)
	// The late replica's snapshot is cut between two commits of the running
	// writer, and its feed must carry on from exactly there.
	lateListening, stopLate := startInProcess(t, func(stop <-chan struct{}) error {
		return runStandby(standbyArgs(cfg, hubAddr, filepath.Join(dir, "store-late"), "-ttl", "1s"), stop)
	})
	w.write(t, pc, min(2, half), half, -1)
	lateAddr, _ := lateListening()
	acked := w.acked.Load()
	// The writer is quiet: both replicas catch up with it, and the late one,
	// read alongside the primary, answers what they do.
	var conns [][]reply
	for _, at := range []string{standbyAddr, lateAddr, primaryAddr} {
		c := dial(t, at)
		conns = append(conns, answersAt(t, c, acked))
		if h := must(t, c.Health); at == lateAddr && !slices.Contains(h, wire.Field{Key: "tail", Value: "live"}) {
			t.Fatalf("the late replica's health: %v", h)
		}
		c.Close()
	}
	stopLate()
	// The live replica was at acked before its readers stopped, and their
	// last round reads it.
	if seen := w.check(t, stopLive()); len(seen) < 2 || !seen[acked] {
		t.Fatalf("the live replica's readers saw %d generations, gen %d: %v", len(seen), acked, seen[acked])
	}
	if e := statField(t, pc, "epoch"); e != 1 {
		t.Fatalf("the primary never checkpoints, and is at epoch %d", e)
	}
	if e := statField(t, sc, "epoch"); e <= 1 {
		t.Fatalf("the replica at -checkpoint-bytes 2048 is at epoch %d after the primary logged %d bytes", e, statField(t, pc, "walbytes"))
	}

	stopPrimary()
	for deadline := time.Now().Add(20 * time.Second); !slices.Contains(must(t, sc.Health), wire.Field{Key: "tail", Value: "degraded"}); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replica never noticed the primary gone")
		}
	}
	must(t, sc.Promote)
	stop := readers(t, standbyAddr, 4, &w.acked)
	w.write(t, sc, half, len(w.steps), -1)
	return standbyAddr, append(conns, stop()...)
}
