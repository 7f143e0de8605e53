package main

// Read-side linearizability of the published views: while one writer
// commits a seeded history, readers on their own connections hammer query
// and answer on every class, and every reply — it names the generation it
// was served at — must be exactly what a serial in-process replay of the
// history holds at that generation, must not be older than any commit acked
// before the read was sent, and must not go back in time on its connection.
// The daemons run in-process (run / runStandby), so the race detector sees
// publisher and readers together.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incgraph"
)

var linClasses = []string{"kws", "rpq", "iso", "scc"}

// linStep is one step of a history: a batch to commit (bad: it must be
// rejected), or a checkpoint.
type linStep struct {
	batch      incgraph.Batch
	bad        bool
	checkpoint bool
}

// linState is what a read of one class must return at one generation.
type linState struct {
	size   int
	answer string
}

// linOracle is the serial replay: the generation after every successful
// commit (gens[0] is the start) and every class's state at each.
type linOracle struct {
	gens []uint64
	at   map[uint64]map[string]linState
}

// linFixture writes the seed graph and the ISO pattern under dir and
// returns the engine half of a daemon config (all four classes standing)
// plus the seed graph.
func linFixture(t *testing.T, dir string) (config, *incgraph.Graph) {
	t.Helper()
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1500, Labels: 3, GiantSCCFrac: 0.5, Seed: 17,
	})
	graphPath := filepath.Join(dir, "seed.snap")
	if err := incgraph.WriteSnapshotFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	// A path l0 → l1 → l2 → l0: three pattern edges for an inserted edge to
	// anchor, so that a large batch tips iso's cost model to the rebuild.
	pg := incgraph.NewGraph()
	for v, l := range []string{"l0", "l1", "l2", "l0"} {
		pg.AddNode(incgraph.NodeID(v), l)
		if v > 0 {
			pg.AddEdge(incgraph.NodeID(v-1), incgraph.NodeID(v))
		}
	}
	patPath := filepath.Join(dir, "pattern.txt")
	pf, err := os.Create(patPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := incgraph.WriteGraph(pf, pg); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	kwsQ, err := incgraph.RandomKWSQuery(g, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return config{
		graphPath: graphPath, fsync: "none", repl: "off", term: 1,
		kwsQuery: strings.Join(kwsQ.Keywords, ","), bound: kwsQ.Bound,
		rpqQuery: "l0.l1*.l2", isoPath: patPath, scc: true,
	}, g
}

// linHistory generates the seeded history over g: small and medium
// batches, insertions that create nodes (below, above and far above the ID
// range), two batches large enough for kws' and iso's rebuild-and-diff path,
// a rejected batch every fifth step and a checkpoint every seventh.
func linHistory(g *incgraph.Graph, seed int64, steps int) []linStep {
	rng := rand.New(rand.NewSource(seed))
	sim := g.Clone()
	nodes := sim.NodesSorted()
	fresh := []incgraph.NodeID{nodes[0] - 1, nodes[len(nodes)-1] + 1, 1 << 40}
	var out []linStep
	for i := 0; i < steps; i++ {
		n := []int{8, 40, 3, 16}[i%4]
		if i == steps/3 || i == 2*steps/3 {
			n = 900
		}
		b := incgraph.RandomUpdates(sim, incgraph.UpdateSpec{
			Count: n, InsertRatio: 0.55, Locality: 0.7, Seed: rng.Int63(),
		})
		k := i % len(fresh)
		v := nodes[rng.Intn(len(nodes))]
		// Both labels: the line protocol cannot say "no label, then one".
		b = append(b, incgraph.InsNew(v, fresh[k], sim.Label(v), fmt.Sprintf("l%d", rng.Intn(3))))
		fresh[k] += []incgraph.NodeID{-1, 1, 1 << 20}[k]
		if i%5 == 4 {
			// Fails on its last update, after a prefix that would apply.
			out = append(out, linStep{bad: true, batch: append(b[:len(b):len(b)], incgraph.Del(1<<50, 1<<51))})
		}
		if err := sim.ApplyBatch(b); err != nil {
			panic(err)
		}
		out = append(out, linStep{batch: b})
		if i%7 == 6 {
			out = append(out, linStep{checkpoint: true})
		}
	}
	return out
}

// linReplay opens the durable state the way run does and replays the
// history serially through it, capturing every class at every generation.
func linReplay(t *testing.T, cfg config, steps []linStep) *linOracle {
	t.Helper()
	g, err := incgraph.LoadGraphFile(cfg.graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shards != 0 {
		g.SetShards(cfg.shards)
	}
	d, err := incgraph.CreateDurable(t.TempDir(), g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// attachEngines' engines in attachEngines' order, built by hand so that
	// the replay can ask kws and iso which path an Apply took.
	kws, err := incgraph.NewKWS(g.Clone(), incgraph.KWSQuery{Keywords: strings.Split(cfg.kwsQuery, ","), Bound: cfg.bound})
	if err != nil {
		t.Fatal(err)
	}
	rpq, err := incgraph.NewRPQ(g.Clone(), cfg.rpqQuery)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := incgraph.LoadGraphFile(cfg.isoPath)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := incgraph.NewPattern(pg)
	if err != nil {
		t.Fatal(err)
	}
	iso := incgraph.NewISO(g.Clone(), pat)
	if err := d.Attach(incgraph.MaintainKWS(kws), incgraph.MaintainRPQ(rpq), incgraph.MaintainISO(iso),
		incgraph.MaintainSCC(incgraph.NewSCC(g.Clone()))); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	kwsRebuilds, isoRebuilds := 0, 0
	o := &linOracle{at: make(map[uint64]map[string]linState)}
	capture := func() {
		gen := d.Generation()
		if _, dup := o.at[gen]; dup {
			t.Fatalf("two commits ended on generation %d", gen)
		}
		o.gens = append(o.gens, gen)
		o.at[gen] = make(map[string]linState)
		for _, m := range d.Engines() {
			var buf bytes.Buffer
			if err := m.WriteAnswer(&buf); err != nil {
				t.Fatal(err)
			}
			o.at[gen][m.Class()] = linState{m.Size(), buf.String()}
		}
	}
	capture()
	moved := make(map[string]int)
	for i, st := range steps {
		if st.checkpoint {
			continue
		}
		before := o.at[d.Generation()]
		_, err := d.Commit(st.batch, incgraph.ApplyOptions{})
		if st.bad {
			if err == nil {
				t.Fatalf("step %d: the bad batch was accepted", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		capture()
		if kws.LastEstimate().PreferBatch() {
			kwsRebuilds++
		}
		if iso.LastEstimate().PreferBatch() {
			isoRebuilds++
		}
		for class, s := range o.at[d.Generation()] {
			if s.size == 0 {
				t.Fatalf("step %d: %s answer is empty", i, class)
			}
			if s != before[class] {
				moved[class]++
			}
		}
	}
	if kwsRebuilds == 0 || isoRebuilds == 0 {
		t.Fatalf("rebuild-and-diff path taken by kws %d times, by iso %d times: want both", kwsRebuilds, isoRebuilds)
	}
	for _, class := range linClasses {
		if moved[class] < 3 {
			t.Fatalf("%s answer moved on %d commits: the history pins nothing", class, moved[class])
		}
	}
	return o
}

// linConn is a goroutine-safe protocol client: errors come back, nothing
// calls t.Fatal.
type linConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func linDial(addr string) (*linConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &linConn{conn: conn, r: bufio.NewReader(conn)}, nil
}

func (c *linConn) line(cmd string) (string, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		return "", err
	}
	reply, err := c.r.ReadString('\n')
	return strings.TrimSpace(reply), err
}

// read issues one query or answer and returns the reply's generation and
// size, and for an answer the dump.
func (c *linConn) read(cmd, class string) (gen uint64, size int, dump string, err error) {
	reply, err := c.line(cmd + " " + class)
	if err != nil {
		return 0, 0, "", err
	}
	f := strings.Fields(reply)
	if len(f) != 4 || f[0] != "ok" || f[1] != class || !strings.HasPrefix(f[3], "gen=") {
		return 0, 0, "", fmt.Errorf("%s %s replied %q, want \"ok %s SIZE gen=G\"", cmd, class, reply, class)
	}
	if size, err = strconv.Atoi(f[2]); err != nil {
		return 0, 0, "", err
	}
	if gen, err = strconv.ParseUint(f[3][len("gen="):], 10, 64); err != nil {
		return 0, 0, "", err
	}
	if cmd == "query" {
		return gen, size, "", nil
	}
	var sb strings.Builder
	for {
		l, err := c.r.ReadString('\n')
		if err != nil {
			return 0, 0, "", err
		}
		if l == ".\n" {
			return gen, size, sb.String(), nil
		}
		sb.WriteString(l)
	}
}

// commit stages and commits one batch and returns the acked generation;
// rejected reports an "err staged" reply.
func (c *linConn) commit(b incgraph.Batch) (gen uint64, rejected bool, err error) {
	var sb strings.Builder
	for _, u := range b {
		if u.Op == incgraph.OpInsert {
			fmt.Fprintf(&sb, "+ %d %d %s %s\n", u.From, u.To, u.FromLabel, u.ToLabel)
		} else {
			fmt.Fprintf(&sb, "- %d %d\n", u.From, u.To)
		}
	}
	c.conn.SetDeadline(time.Now().Add(60 * time.Second))
	go c.conn.Write([]byte(sb.String() + "commit\n")) // acks flow back while we write
	for range b {
		ack, err := c.r.ReadString('\n')
		if err != nil || !strings.HasPrefix(ack, "ok staged") {
			return 0, false, fmt.Errorf("stage ack %q: %v", ack, err)
		}
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		return 0, false, err
	}
	if strings.HasPrefix(reply, "err staged: commit failed") {
		return 0, true, nil
	}
	for _, f := range strings.Fields(reply) {
		if g, ok := strings.CutPrefix(f, "gen="); ok && strings.HasPrefix(reply, "ok applied") {
			gen, err = strconv.ParseUint(g, 10, 64)
			return gen, false, err
		}
	}
	return 0, false, fmt.Errorf("commit replied %q", reply)
}

// linWrite drives steps through the daemon at addr, checking every ack
// against the oracle (whose generations continue at next) and raising acked
// after each. It returns the index of the next oracle generation.
func linWrite(t *testing.T, addr string, steps []linStep, o *linOracle, next int, acked *atomic.Uint64) int {
	t.Helper()
	w, err := linDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.conn.Close()
	for i, st := range steps {
		if st.checkpoint {
			if reply, err := w.line("checkpoint"); err != nil || !strings.HasPrefix(reply, "ok checkpoint") {
				t.Fatalf("step %d: checkpoint: %q, %v", i, reply, err)
			}
			continue
		}
		gen, rejected, err := w.commit(st.batch)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if rejected != st.bad {
			t.Fatalf("step %d: rejected = %v, want %v", i, rejected, st.bad)
		}
		if st.bad {
			continue
		}
		if gen != o.gens[next] {
			t.Fatalf("step %d acked gen %d, the replay is at %d", i, gen, o.gens[next])
		}
		next++
		acked.Store(gen)
	}
	return next
}

// linReaders starts n readers against addr. Each checks every reply
// against the oracle at the reply's generation, that generations do not go
// back on its connection, and — when acked is set — that none is older than
// the newest commit acked before the read was sent. They run until stop is
// closed and then read once more; wait returns the generations seen.
func linReaders(t *testing.T, addr string, n int, o *linOracle, acked *atomic.Uint64, stop <-chan struct{}) (wait func() map[uint64]bool) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	for r := 0; r < n; r++ {
		c, err := linDial(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer c.conn.Close()
			var last uint64
			left := -1 // reads left once stop is closed: one per class
			for op := r; left != 0; op++ {
				if left < 0 {
					select {
					case <-stop:
						left = len(linClasses)
					default:
					}
				} else {
					left--
				}
				class := linClasses[op%len(linClasses)]
				cmd := "query"
				if op%3 == 0 {
					cmd = "answer"
				}
				var floor uint64
				if acked != nil {
					floor = acked.Load()
				}
				gen, size, dump, err := c.read(cmd, class)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				want, ok := o.at[gen][class]
				switch {
				case !ok:
					t.Errorf("reader %d: %s %s served at gen %d, which no commit ended on", r, cmd, class, gen)
				case gen < floor:
					t.Errorf("reader %d: %s %s served at gen %d after gen %d was acked", r, cmd, class, gen, floor)
				case gen < last:
					t.Errorf("reader %d: %s %s served at gen %d after this connection read gen %d", r, cmd, class, gen, last)
				case size != want.size:
					t.Errorf("reader %d: %s %s at gen %d: size %d, replay has %d", r, cmd, class, gen, size, want.size)
				case cmd == "answer" && dump != want.answer:
					t.Errorf("reader %d: answer %s at gen %d differs from the replay (%d vs %d bytes)", r, class, gen, len(dump), len(want.answer))
				}
				if t.Failed() {
					return
				}
				last = gen
				mu.Lock()
				seen[gen] = true
				mu.Unlock()
			}
		}(r)
	}
	return func() map[uint64]bool {
		wg.Wait()
		return seen
	}
}

// linServe runs a daemon in-process until the returned stop function is
// called (also at cleanup).
func linServe(t *testing.T, addr string, serve func(stop <-chan struct{}) error) (stop func()) {
	t.Helper()
	ch := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- serve(ch) }()
	if err := waitForAddr(addr, 20*time.Second); err != nil {
		t.Fatalf("daemon on %s never came up: %v", addr, err)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(ch)
			if err := <-done; err != nil {
				t.Errorf("daemon on %s: %v", addr, err)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

// TestLinearizableReads: the check on a single-process primary and on a
// cluster coordinator over two in-process shard workers.
func TestLinearizableReads(t *testing.T) {
	for _, shape := range []string{"single", "cluster"} {
		t.Run(shape, func(t *testing.T) {
			dir := t.TempDir()
			cfg, g := linFixture(t, dir)
			cfg.storeDir, cfg.addr = filepath.Join(dir, "store"), pickAddr(t)
			if shape == "cluster" {
				cfg.shards = 4
				var addrs []string
				for i := 0; i < 2; i++ {
					ln, err := incgraph.ListenCluster("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { ln.Close() })
					go incgraph.NewClusterWorker().Serve(ln)
					addrs = append(addrs, ln.Addr().String())
				}
				cfg.clusterAddrs = strings.Join(addrs, ",")
			}
			steps := linHistory(g, 29, 30)
			o := linReplay(t, cfg, steps)
			linServe(t, cfg.addr, func(stop <-chan struct{}) error { return run(cfg, stop) })

			var acked atomic.Uint64
			acked.Store(o.gens[0])
			done := make(chan struct{})
			wait := linReaders(t, cfg.addr, 4, o, &acked, done)
			if next := linWrite(t, cfg.addr, steps, o, 1, &acked); next != len(o.gens) {
				t.Fatalf("the writer acked %d commits, the replay made %d", next-1, len(o.gens)-1)
			}
			close(done)
			seen := wait()
			if !seen[o.gens[len(o.gens)-1]] {
				t.Fatal("no reader saw the last generation")
			}
			if len(seen) < 3 {
				t.Fatalf("readers saw %d generations: they did not overlap the writer", len(seen))
			}
			// The readers above were served across folds, too.
			c, err := linDial(cfg.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.conn.Close()
			if stat, err := c.line("stat"); err != nil || !strings.Contains(stat, " view_folds=") || strings.Contains(stat, " view_folds=0 ") {
				t.Fatalf("no chain was folded during the history: %q, %v", stat, err)
			}
		})
	}
}

// TestLinearizableStandbyReads: readers on a live standby see only states
// of the feed, in order; after the primary is gone and the standby
// promoted, the rest of the history goes through it and its readers are
// held to the full check.
func TestLinearizableStandbyReads(t *testing.T) {
	dir := t.TempDir()
	cfg, g := linFixture(t, dir)
	cfg.storeDir, cfg.addr, cfg.hubAddr = filepath.Join(dir, "store"), pickAddr(t), pickAddr(t)
	steps := linHistory(g, 31, 24)
	o := linReplay(t, cfg, steps)
	half := len(steps) / 2
	stopPrimary := linServe(t, cfg.addr, func(stop <-chan struct{}) error { return run(cfg, stop) })
	standbyAddr := pickAddr(t)
	linServe(t, standbyAddr, func(stop <-chan struct{}) error {
		return runStandby([]string{
			"-primary", cfg.hubAddr, "-store", filepath.Join(dir, "store-standby"), "-addr", standbyAddr,
			"-ttl", "1s", "-fsync", "none", "-checkpoint-bytes", "0",
			"-kws", cfg.kwsQuery, "-bound", fmt.Sprint(cfg.bound), "-rpq", cfg.rpqQuery, "-iso", cfg.isoPath, "-scc",
		}, stop)
	})

	// First half through the primary, readers on the standby: the feed is
	// asynchronous, so there is no floor, only order and exactness.
	var acked atomic.Uint64
	done := make(chan struct{})
	wait := linReaders(t, standbyAddr, 4, o, nil, done)
	// A second standby attaches once the writer below is two commits in: its
	// snapshot is cut between two commits of a running writer, and the feed
	// carries on from exactly there.
	lateAddr, lateStop, lateDone := pickAddr(t), make(chan struct{}), make(chan error, 1)
	go func() {
		for acked.Load() < o.gens[2] {
			select {
			case <-lateStop:
				lateDone <- nil
				return
			case <-time.After(time.Millisecond):
			}
		}
		lateDone <- runStandby([]string{
			"-primary", cfg.hubAddr, "-store", filepath.Join(dir, "store-late"), "-addr", lateAddr,
			"-ttl", "1s", "-fsync", "none", "-checkpoint-bytes", "0",
			"-kws", cfg.kwsQuery, "-bound", fmt.Sprint(cfg.bound), "-rpq", cfg.rpqQuery, "-iso", cfg.isoPath, "-scc",
		}, lateStop)
	}()
	stopLate := sync.OnceFunc(func() {
		close(lateStop)
		if err := <-lateDone; err != nil {
			t.Errorf("late standby: %v", err)
		}
	})
	t.Cleanup(stopLate)
	next := linWrite(t, cfg.addr, steps[:half], o, 1, &acked)
	sc, err := linDial(standbyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.conn.Close()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		gen, _, _, err := sc.read("query", "scc")
		if err != nil {
			t.Fatal(err)
		}
		if gen == acked.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby at gen %d never reached gen %d", gen, acked.Load())
		}
	}
	close(done)
	if seen := wait(); !seen[acked.Load()] || len(seen) < 2 {
		t.Fatalf("standby readers saw %d generations, the last one: %v", len(seen), seen[acked.Load()])
	}

	// The writer is quiet: the late standby converges to the primary's bytes.
	if err := waitForAddr(lateAddr, 20*time.Second); err != nil {
		t.Fatalf("late standby never came up: %v", err)
	}
	pc, err := linDial(cfg.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.conn.Close()
	lc, err := linDial(lateAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.conn.Close()
	for _, class := range linClasses {
		gen, _, want, err := pc.read("answer", class)
		if err != nil || gen != acked.Load() {
			t.Fatalf("primary %s at gen %d, acked %d: %v", class, gen, acked.Load(), err)
		}
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			lateGen, _, got, err := lc.read("answer", class)
			if err != nil {
				t.Fatal(err)
			}
			if lateGen == gen {
				if got != want {
					t.Fatalf("%s on the standby attached mid-stream differs from the primary's at gen %d", class, gen)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("late standby at gen %d never reached gen %d", lateGen, gen)
			}
		}
	}
	if h, err := lc.line("health"); err != nil || !strings.Contains(h, "tail=live") {
		t.Fatalf("late standby health: %q, %v", h, err)
	}
	stopLate()

	// Primary gone, standby promoted: the second half goes through it.
	stopPrimary()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		h, err := sc.line("health")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(h, "tail=degraded") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never noticed the primary gone: %s", h)
		}
	}
	if reply, err := sc.line("promote"); err != nil || !strings.HasPrefix(reply, "ok promoted") {
		t.Fatalf("promote: %q, %v", reply, err)
	}
	done = make(chan struct{})
	wait = linReaders(t, standbyAddr, 4, o, &acked, done)
	if next = linWrite(t, standbyAddr, steps[half:], o, next, &acked); next != len(o.gens) {
		t.Fatalf("the writers acked %d commits, the replay made %d", next-1, len(o.gens)-1)
	}
	close(done)
	if seen := wait(); !seen[o.gens[len(o.gens)-1]] {
		t.Fatal("no reader of the promoted standby saw the last generation")
	}
}

// TestStandbyAutoCheckpoints: a standby honours -checkpoint-bytes. Fed
// through a real hub by a primary that never checkpoints, a replica with a
// 2 KB threshold folds its WAL into a new epoch every few commits — under
// commitMu, which no read takes, like a primary, so its reads keep answering,
// and with the primary's bytes.
func TestStandbyAutoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg, g := linFixture(t, dir)
	cfg.storeDir, cfg.addr, cfg.hubAddr = filepath.Join(dir, "store"), pickAddr(t), pickAddr(t)
	linServe(t, cfg.addr, func(stop <-chan struct{}) error { return run(cfg, stop) })
	standbyAddr := pickAddr(t)
	linServe(t, standbyAddr, func(stop <-chan struct{}) error {
		return runStandby([]string{
			"-primary", cfg.hubAddr, "-store", filepath.Join(dir, "store-standby"), "-addr", standbyAddr,
			"-ttl", "5s", "-fsync", "none", "-checkpoint-bytes", "2048",
			"-kws", cfg.kwsQuery, "-bound", fmt.Sprint(cfg.bound), "-rpq", cfg.rpqQuery, "-iso", cfg.isoPath, "-scc",
		}, stop)
	})
	pc, err := linDial(cfg.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.conn.Close()
	sc, err := linDial(standbyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.conn.Close()
	statField := func(c *linConn, name string) int {
		stat, err := c.line("stat")
		if err != nil {
			t.Fatal(err)
		}
		return statInt(t, stat, name)
	}

	sim := g.Clone()
	fell, last := 0, 0
	for i := 0; i < 12; i++ {
		b := incgraph.RandomUpdates(sim, incgraph.UpdateSpec{Count: 40, InsertRatio: 0.55, Locality: 0.7, Seed: int64(500 + i)})
		if err := sim.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, rejected, err := pc.commit(b); err != nil || rejected {
			t.Fatalf("commit %d: rejected %v, %v", i, rejected, err)
		}
		// tail_seq moves once the feed apply has returned — after the
		// checkpoint, and after the mirror stat reads was refreshed.
		for deadline := time.Now().Add(20 * time.Second); statField(sc, "tail_seq") != i+1; time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("standby never applied feed record %d", i+1)
			}
		}
		now := statField(sc, "walbytes")
		if now < last {
			fell++
		}
		last = now
	}
	if e := statField(pc, "epoch"); e != 1 {
		t.Fatalf("the primary runs with -checkpoint-bytes 0 and is at epoch %d", e)
	}
	if w := statField(pc, "walbytes"); w <= 2048 {
		t.Fatalf("the history logged %d bytes: too short to cross the standby's threshold", w)
	}
	if e := statField(sc, "epoch"); e <= 1 || fell == 0 {
		t.Fatalf("standby with -checkpoint-bytes 2048 is at epoch %d and its walbytes fell %d times", e, fell)
	}
	for _, class := range linClasses {
		_, _, want, err := pc.read("answer", class)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, got, err := sc.read("answer", class); err != nil || got != want {
			t.Fatalf("%s on the checkpointed standby differs from the primary's (%v)", class, err)
		}
	}
}
