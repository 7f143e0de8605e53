package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/store"
)

// haBatches builds n individually valid batches by evolving a clone of g,
// and returns them with the final reference graph (g + all n batches).
func haBatches(t *testing.T, g *graph.Graph, n, count int, seed int64) ([]graph.Batch, *graph.Graph) {
	t.Helper()
	ref := g.Clone()
	batches := make([]graph.Batch, 0, n)
	for i := 0; i < n; i++ {
		b := gen.Updates(ref, gen.UpdateSpec{Count: count, InsertRatio: 0.6, Locality: 0.5, Seed: seed + int64(i)})
		if err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	return batches, ref
}

// applyFed is applyLocal for a primary with a standby feed: the commit
// callback applies b to g and hands it to hub, numbered by *seq, under the
// coordinator mutex — the way a library caller feeds its hub.
func applyFed(co *Coordinator, hub *Hub, seq *uint64, g *graph.Graph, b graph.Batch) error {
	return co.Apply(b, func() error {
		preGen := g.Generation()
		if err := g.ApplyBatch(b); err != nil {
			return err
		}
		*seq++
		hub.Feed(*seq, preGen, g.Generation(), b)
		return nil
	})
}

// redialLinks opens a fresh session to every worker behind links — the
// connections a successor coordinator attaches over.
func redialLinks(t *testing.T, links []Link) []Link {
	t.Helper()
	out := make([]Link, len(links))
	for i := range links {
		conn, err := links[i].Redial()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Link{Conn: conn, Name: links[i].Name, Redial: links[i].Redial}
	}
	return out
}

func TestClusterFencingRejectsDeposedCoordinator(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	co1, err := NewCoordinator(g, links, CoordinatorOptions{Term: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co1.Close()
	batches, _ := haBatches(t, g, 3, 50, 600)
	if err := applyLocal(co1, g, batches[0]); err != nil {
		t.Fatal(err)
	}

	// A successor attaches over fresh sessions at a higher term.
	g2 := g.Clone()
	co2, err := NewCoordinator(g2, redialLinks(t, links), CoordinatorOptions{Term: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()

	// The deposed coordinator's writes bounce off the fence...
	before := g.Clone()
	err = applyLocal(co1, g, batches[1])
	if err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("deposed apply: got %v, want fenced", err)
	}
	if !g.Equal(before) {
		t.Fatal("fenced apply mutated the deposed coordinator's graph")
	}
	// ...including the resync path its abort queued up.
	if err = applyLocal(co1, g, batches[1]); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("deposed resync: got %v, want fenced", err)
	}

	// The successor operates normally.
	if err := applyLocal(co2, g2, batches[1]); err != nil {
		t.Fatalf("successor apply: %v", err)
	}
	if err := co2.VerifyAll(); err != nil {
		t.Fatalf("successor replicas diverged: %v", err)
	}
	// Every worker has seen the successor's term: a low-term hello cannot
	// rejoin any of them.
	for _, l := range links {
		conn, err := l.Redial()
		if err != nil {
			t.Fatal(err)
		}
		_, err = roundTrip(conn, encodeHello(g.NumShards(), 1))
		conn.Close()
		if err == nil || !strings.Contains(err.Error(), "fenced") {
			t.Fatalf("low-term hello to %s: got %v, want fenced", l.Name, err)
		}
	}
}

func TestClusterStandbyPromoteRecoversIdentically(t *testing.T) {
	g := testGraph(t, 8)
	batches, ref := haBatches(t, g, 8, 60, 500)
	links, _, stop := InProcess(2)
	defer stop()

	// The standby attaches before any batch, so the handshake snapshot is
	// the initial state and the whole run arrives through the feed.
	hub := NewHub(HubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
			var buf bytes.Buffer
			if err := store.WriteSnapshot(&buf, g); err != nil {
				return 0, 0, nil, err
			}
			return 0, g.Generation(), buf.Bytes(), nil
		},
	})
	var (
		sgMu sync.Mutex
		sg   *graph.Graph
	)
	standby := NewStandby(StandbyOptions{
		TTL: time.Second,
		Load: func(term, seq, gen uint64, snap []byte) error {
			loaded, err := store.ReadSnapshot(bytes.NewReader(snap), int64(len(snap)))
			if err != nil {
				return err
			}
			sgMu.Lock()
			sg = loaded
			sgMu.Unlock()
			return nil
		},
		Apply: func(seq, postGen uint64, b graph.Batch) error {
			sgMu.Lock()
			defer sgMu.Unlock()
			if err := sg.ApplyBatch(b); err != nil {
				return err
			}
			if sg.Generation() != postGen {
				return fmt.Errorf("standby at gen %d after seq %d, primary said %d", sg.Generation(), seq, postGen)
			}
			return nil
		},
	})
	hc, sc := net.Pipe()
	tailDone := make(chan error, 1)
	go hub.ServeConn(hc)
	go func() { tailDone <- standby.Run(sc) }()
	deadline := time.Now().Add(5 * time.Second)
	// The standby knows the term once it has loaded the handshake
	// snapshot; committing before then would race the snapshot's cut.
	for standby.Term() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never loaded the handshake snapshot")
		}
		time.Sleep(time.Millisecond)
	}

	co1, err := NewCoordinator(g, links, CoordinatorOptions{Term: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co1.Close()
	var seq uint64
	for i := 0; i < 4; i++ {
		if err := applyFed(co1, hub, &seq, g, batches[i]); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	// Feeds are enqueued in commit order but acked asynchronously; wait
	// for the standby to drain the stream before severing it.
	deadline = time.Now().Add(5 * time.Second)
	for standby.LastSeq() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("standby at seq %d after 4 commits, want 4", standby.LastSeq())
		}
		time.Sleep(time.Millisecond)
	}

	// The primary dies mid-stream: feed severed, coordinator abandoned
	// without Close — its worker sessions stay open, like a hung process.
	hub.Close()
	hc.Close()
	if err := <-tailDone; err == nil {
		t.Fatal("standby tail survived a severed feed")
	}

	// Promote: the standby's graph becomes authoritative under term+1.
	sgMu.Lock()
	promoted := sg
	sgMu.Unlock()
	if promoted.Generation() != standby.Gen() {
		t.Fatalf("promoted graph at gen %d, standby tracked %d", promoted.Generation(), standby.Gen())
	}
	co2, err := NewCoordinator(promoted, redialLinks(t, links), CoordinatorOptions{Term: standby.Term() + 1})
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer co2.Close()
	for i := 4; i < 8; i++ {
		if err := applyLocal(co2, promoted, batches[i]); err != nil {
			t.Fatalf("post-promotion batch %d: %v", i, err)
		}
	}

	// The deposed primary's late commit is fenced out.
	late := gen.Updates(g.Clone(), gen.UpdateSpec{Count: 30, InsertRatio: 0.6, Locality: 0.5, Seed: 99})
	if err := applyLocal(co1, g, late); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("deposed late commit: got %v, want fenced", err)
	}

	// Recovery is byte-identical to the uninterrupted run: same graph, and
	// the canonical snapshot encodings match byte for byte.
	if !promoted.Equal(ref) {
		t.Fatal("promoted graph diverged from the uninterrupted reference run")
	}
	var got, want bytes.Buffer
	if err := store.WriteSnapshot(&got, promoted); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered snapshot differs from the uninterrupted run's")
	}
	if err := co2.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after failover: %v", err)
	}
}

// TestHubFeedCommitOrderUnderConcurrentCommits pins the ordering
// guarantee behind standby replication: the commit callback runs under the
// coordinator mutex, so batches committed from concurrent callers can
// never reach the hub out of sequence. The
// standby here is stricter than incgraphd's — it requires gapless,
// strictly increasing sequences AND the exact post-commit generation —
// so a single inverted feed fails the run.
func TestHubFeedCommitOrderUnderConcurrentCommits(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()

	hub := NewHub(HubOptions{
		Term:      1,
		Heartbeat: 50 * time.Millisecond,
		Snapshot: func() (uint64, uint64, []byte, error) {
			var buf bytes.Buffer
			if err := store.WriteSnapshot(&buf, g); err != nil {
				return 0, 0, nil, err
			}
			return 0, g.Generation(), buf.Bytes(), nil
		},
	})
	var (
		sgMu    sync.Mutex
		sg      *graph.Graph
		lastSeq uint64
	)
	standby := NewStandby(StandbyOptions{
		TTL: 5 * time.Second,
		Load: func(term, seq, gen uint64, snap []byte) error {
			loaded, err := store.ReadSnapshot(bytes.NewReader(snap), int64(len(snap)))
			if err != nil {
				return err
			}
			sgMu.Lock()
			sg = loaded
			sgMu.Unlock()
			return nil
		},
		Apply: func(seq, postGen uint64, b graph.Batch) error {
			sgMu.Lock()
			defer sgMu.Unlock()
			if seq != lastSeq+1 {
				return fmt.Errorf("feed seq %d after %d: out of commit order", seq, lastSeq)
			}
			lastSeq = seq
			if err := sg.ApplyBatch(b); err != nil {
				return err
			}
			if sg.Generation() != postGen {
				return fmt.Errorf("standby at gen %d after seq %d, primary said %d", sg.Generation(), seq, postGen)
			}
			return nil
		},
	})
	hc, sc := net.Pipe()
	tailDone := make(chan error, 1)
	go hub.ServeConn(hc)
	go func() { tailDone <- standby.Run(sc) }()
	deadline := time.Now().Add(5 * time.Second)
	// The standby knows the term once it has loaded the handshake
	// snapshot; committing before then would race the snapshot's cut.
	for standby.Term() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never loaded the handshake snapshot")
		}
		time.Sleep(time.Millisecond)
	}

	co, err := NewCoordinator(g, links, CoordinatorOptions{Term: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// The callback adds seq-dependent latency before the feed (a stand-in
	// for variable record encode time): the ordering guarantee must come
	// from the coordinator serializing commits, not from the callback being
	// fast.
	var seq uint64
	commit := func(b graph.Batch) func() error {
		return func() error {
			preGen := g.Generation()
			if err := g.ApplyBatch(b); err != nil {
				return err
			}
			seq++
			time.Sleep(time.Duration(seq%3) * time.Millisecond)
			hub.Feed(seq, preGen, g.Generation(), b)
			return nil
		}
	}

	// Rounds of single-shard batches fired from concurrent callers (the
	// TestConcurrentBatchesMatchSerial workload), so callers racing for
	// the coordinator are the norm, not the exception.
	var total uint64
	for round := 0; round < 5; round++ {
		scratch := g.Clone()
		all := gen.Updates(scratch, gen.UpdateSpec{Count: 200, InsertRatio: 0.6, Locality: 0.3, Seed: 500 + int64(round)})
		byShard := make(map[int]graph.Batch)
		for _, u := range all {
			if sf, st := g.ShardOf(u.From), g.ShardOf(u.To); sf == st {
				byShard[sf] = append(byShard[sf], u)
			}
		}
		check := g.Clone()
		var batches []graph.Batch
		for s := 0; s < 8; s++ {
			if b := byShard[s]; len(b) > 0 && check.ValidateBatch(b) == nil {
				if err := check.ApplyBatch(b); err != nil {
					t.Fatal(err)
				}
				batches = append(batches, b)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(batches))
		for i, b := range batches {
			wg.Add(1)
			go func(i int, b graph.Batch) {
				defer wg.Done()
				errs[i] = co.Apply(b, commit(b))
			}(i, b)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d batch %d: %v", round, i, err)
			}
		}
		total += uint64(len(batches))
	}

	// Drain the feed; a tail death here means an out-of-order or
	// generation-mismatched record got through.
	deadline = time.Now().Add(10 * time.Second)
	for standby.LastSeq() != total {
		select {
		case err := <-tailDone:
			t.Fatalf("standby tail died mid-stream: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby at seq %d, want %d", standby.LastSeq(), total)
		}
		time.Sleep(time.Millisecond)
	}
	sgMu.Lock()
	diverged := !sg.Equal(g)
	sgMu.Unlock()
	if diverged {
		t.Fatal("standby graph diverged from primary after concurrent commits")
	}
	hub.Close()
	hc.Close()
	<-tailDone
}

func TestStandbyLeaseExpires(t *testing.T) {
	// A hub that never heartbeats after the handshake is indistinguishable
	// from a dead primary: the standby's lease lapses.
	hub := NewHub(HubOptions{
		Term:      3,
		Heartbeat: time.Hour,
		Snapshot:  func() (uint64, uint64, []byte, error) { return 7, 9, nil, nil },
	})
	standby := NewStandby(StandbyOptions{
		TTL: 100 * time.Millisecond,
		Load: func(term, seq, gen uint64, snap []byte) error {
			if term != 3 || seq != 7 || gen != 9 {
				return fmt.Errorf("handshake (%d,%d,%d), want (3,7,9)", term, seq, gen)
			}
			return nil
		},
		Apply: func(uint64, uint64, graph.Batch) error { return nil },
	})
	hc, sc := net.Pipe()
	defer hc.Close()
	go hub.ServeConn(hc)
	err := standby.Run(sc)
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("silent primary: got %v, want ErrLeaseExpired", err)
	}
	if standby.Term() != 3 || standby.LastSeq() != 7 || standby.Gen() != 9 {
		t.Fatalf("standby position (%d,%d,%d), want (3,7,9)", standby.Term(), standby.LastSeq(), standby.Gen())
	}
}

// TestStandbySlowApplyKeepsTail: the lease bounds the standby's wait for
// the hub's next push, not its own apply. A fed record whose apply outlasts
// the TTL is acked, and the tail goes on to the next.
func TestStandbySlowApplyKeepsTail(t *testing.T) {
	hub := NewHub(HubOptions{
		Term:      1,
		Heartbeat: 20 * time.Millisecond,
		Snapshot:  func() (uint64, uint64, []byte, error) { return 0, 0, nil, nil },
	})
	applied := make(chan uint64, 2)
	standby := NewStandby(StandbyOptions{
		TTL:  100 * time.Millisecond,
		Load: func(uint64, uint64, uint64, []byte) error { return nil },
		Apply: func(seq, _ uint64, _ graph.Batch) error {
			if seq == 1 {
				time.Sleep(300 * time.Millisecond)
			}
			applied <- seq
			return nil
		},
	})
	hc, sc := net.Pipe()
	defer hc.Close()
	go hub.ServeConn(hc)
	tail := make(chan error, 1)
	go func() { tail <- standby.Run(sc) }()
	for hub.Standbys() == 0 {
		time.Sleep(time.Millisecond)
	}
	hub.Feed(1, 0, 1, graph.Batch{graph.InsNew(1, 2, "a", "b")})
	hub.Feed(2, 1, 2, graph.Batch{graph.Del(1, 2)})
	for want := uint64(1); want <= 2; want++ {
		select {
		case seq := <-applied:
			if seq != want {
				t.Fatalf("the standby applied record %d, want %d", seq, want)
			}
		case err := <-tail:
			t.Fatalf("the tail ended before record %d: %v", want, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("record %d was never applied", want)
		}
	}
	hub.Close()
	<-tail
}

// TestHubAttachMidStorm: standbys that attach while commits are landing see
// no gap and no duplicate, and the handshake cannot deadlock the feeder. The
// owner here is what incgraphd is: every commit moves the state and calls Feed
// under one lock, and the Snapshot callback takes that lock. A hub that held
// its own mutex into Snapshot would deadlock against a commit inside Feed, so
// the whole run is bounded.
func TestHubAttachMidStorm(t *testing.T) {
	const commits, attaches = 300, 6
	var (
		l     sync.Mutex // the owner's commit lock
		state uint64     // the count of commits; a snapshot is its decimal text
	)
	hub := NewHub(HubOptions{Term: 1, Snapshot: func() (uint64, uint64, []byte, error) {
		l.Lock()
		defer l.Unlock()
		return state, state, []byte(fmt.Sprint(state)), nil
	}})
	batch := graph.Batch{graph.Ins(1, 2)}

	type tail struct {
		st   *Standby
		base uint64
		seen []uint64
		done chan error
	}
	attach := func() *tail {
		tl := &tail{done: make(chan error, 1)}
		tl.st = NewStandby(StandbyOptions{
			TTL: 30 * time.Second,
			Load: func(term, seq, gen uint64, snap []byte) error {
				if string(snap) != fmt.Sprint(seq) || gen != seq {
					return fmt.Errorf("snapshot %q cut at seq %d gen %d: not one commit's state", snap, seq, gen)
				}
				tl.base = seq
				return nil
			},
			Apply: func(seq, postGen uint64, b graph.Batch) error {
				tl.seen = append(tl.seen, seq)
				return nil
			},
		})
		hc, sc := BufferedPipe()
		go hub.ServeConn(hc)
		go func() { tl.done <- tl.st.Run(sc) }()
		return tl
	}

	finished := make(chan []*tail, 1)
	go func() {
		var tails []*tail
		for i := 1; i <= commits; i++ {
			if i%(commits/(attaches+1)) == 0 && len(tails) < attaches {
				tails = append(tails, attach())
			}
			l.Lock()
			state++
			time.Sleep(50 * time.Microsecond) // the apply: time spent under the lock before the feed
			hub.Feed(state, state-1, state, batch)
			l.Unlock()
		}
		finished <- tails
	}()
	var tails []*tail
	select {
	case tails = <-finished:
	case <-time.After(30 * time.Second):
		// No hub.Close here or deferred: it would join the deadlock.
		t.Fatal("the feeder never finished: a handshake and a commit hold each other's lock")
	}
	for k, tl := range tails {
		for deadline := time.Now().Add(30 * time.Second); tl.st.LastSeq() != commits; time.Sleep(time.Millisecond) {
			select {
			case err := <-tl.done:
				t.Fatalf("standby %d: tail ended at seq %d: %v", k, tl.st.LastSeq(), err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("standby %d stuck at seq %d of %d", k, tl.st.LastSeq(), commits)
			}
		}
	}
	hub.Close()
	for k, tl := range tails {
		<-tl.done // Run has returned: base and seen are ours to read
		if tl.base == 0 || tl.base >= commits {
			t.Errorf("standby %d attached at seq %d: not mid-storm", k, tl.base)
		}
		for i, seq := range tl.seen {
			if seq != tl.base+uint64(i)+1 {
				t.Fatalf("standby %d: loaded at seq %d, then applied %v…: want every seq after the base exactly once",
					k, tl.base, tl.seen[:i+1])
			}
		}
		if got := tl.base + uint64(len(tl.seen)); got != commits {
			t.Errorf("standby %d covered through seq %d, want %d", k, got, commits)
		}
	}
}

// runFaultDrill is one chaos drill: drop the first phase-1 apply, let the
// batch abort on its call deadline, and verify the retry resyncs and the
// run converges. It returns the script's event log — the determinism pin.
func runFaultDrill(t *testing.T) []string {
	t.Helper()
	g := testGraph(t, 8)
	links, _, stop := InProcess(1)
	defer stop()
	script := NewFaultScript(42, FaultRule{
		Dir: FaultOut, Frame: -1, Msg: byte(msgApply), Action: FaultDrop, Count: 1,
	})
	links[0] = script.WrapLink(links[0])
	co, err := NewCoordinator(g, links, CoordinatorOptions{CallTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	batches, ref := haBatches(t, g, 2, 40, 900)
	if err := applyLocal(co, g, batches[0]); err == nil {
		t.Fatal("apply survived a dropped phase-1 frame")
	}
	for i, b := range batches {
		if err := applyLocal(co, g, b); err != nil {
			t.Fatalf("batch %d after fault: %v", i, err)
		}
	}
	if co.Resyncs() == 0 {
		t.Fatal("aborted batch never resynced")
	}
	if !g.Equal(ref) {
		t.Fatal("drill run diverged from reference application")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after drill: %v", err)
	}
	return script.Events()
}

func TestClusterFaultDrillDeterministic(t *testing.T) {
	first := runFaultDrill(t)
	second := runFaultDrill(t)
	if len(first) == 0 {
		t.Fatal("drill fired no faults")
	}
	if !strings.Contains(first[0], "apply drop") {
		t.Fatalf("unexpected first event %q", first[0])
	}
	if !slices.Equal(first, second) {
		t.Fatalf("drill not deterministic:\n  first:  %v\n  second: %v", first, second)
	}
}

func TestClusterConcurrentDisjointBatchAbort(t *testing.T) {
	g := testGraph(t, 8)
	links, _, stop := InProcess(2)
	defer stop()
	// Worker 1 loses the first phase-1 apply sent to it; worker 0 is
	// healthy. Two shard-disjoint batches race: the one routed to worker 1
	// must abort alone, the other must commit.
	script := NewFaultScript(11, FaultRule{
		Dir: FaultOut, Frame: -1, Msg: byte(msgApply), Action: FaultDrop, Count: 1,
	})
	links[1] = script.WrapLink(links[1])
	co, err := NewCoordinator(g, links, CoordinatorOptions{CallTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Two individually valid single-shard batches owned by different
	// workers (shard s lives on worker s%2).
	g0 := g.Clone()
	all := gen.Updates(g.Clone(), gen.UpdateSpec{Count: 300, InsertRatio: 0.6, Locality: 0.3, Seed: 78})
	byShard := make(map[int]graph.Batch)
	for _, u := range all {
		if sf, st := g.ShardOf(u.From), g.ShardOf(u.To); sf == st {
			byShard[sf] = append(byShard[sf], u)
		}
	}
	pick := func(worker int) graph.Batch {
		for s := 0; s < 8; s++ {
			if s%2 == worker {
				if b := byShard[s]; len(b) > 0 && g.ValidateBatch(b) == nil {
					return b
				}
			}
		}
		t.Skipf("workload produced no single-shard batch for worker %d", worker)
		return nil
	}
	bA, bB := pick(0), pick(1)

	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = applyLocal(co, g, bA) }()
	go func() { defer wg.Done(); errB = applyLocal(co, g, bB) }()
	wg.Wait()
	if errA != nil {
		t.Fatalf("batch on the healthy worker: %v", errA)
	}
	if errB == nil {
		t.Fatal("batch on the faulted worker survived a dropped phase-1 frame")
	}

	// The aborted batch's shards resync cleanly and the retry commits.
	if err := applyLocal(co, g, bB); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	if co.Resyncs() == 0 {
		t.Fatal("no resync after aborted batch")
	}
	ref := g0
	if err := ref.ApplyBatch(bA); err != nil {
		t.Fatal(err)
	}
	if err := ref.ApplyBatch(bB); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(ref) {
		t.Fatal("concurrent abort left the graph diverged")
	}
	if err := co.VerifyAll(); err != nil {
		t.Fatalf("replicas diverged after concurrent abort: %v", err)
	}
}

func TestDialerRetriesAndBackoff(t *testing.T) {
	// A dead port exhausts the attempt budget.
	d := &Dialer{Timeout: 200 * time.Millisecond, Attempts: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1}
	if _, err := d.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial of a dead port succeeded")
	}
	if got := d.Retries(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}

	// A live listener connects on the first attempt.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	d2 := &Dialer{Timeout: time.Second, Attempts: 3, Backoff: time.Millisecond, Seed: 1}
	link, err := d2.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial of live listener: %v", err)
	}
	link.Conn.Close()
	if got := d2.Retries(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}
