package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
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

// TestClusterStandbyPromoteRecoversIdentically: a primary behind a
// coordinator feeds its standby from the commit callback; the primary dies
// mid-stream, the standby's graph is promoted and finishes the stream, and
// the result is byte-identical to the uninterrupted run.
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

	co1, err := NewCoordinator(g, links)
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

	// The primary dies mid-stream: feed severed, coordinator abandoned.
	hub.Close()
	hc.Close()
	if err := <-tailDone; err == nil {
		t.Fatal("standby tail survived a severed feed")
	}

	// Promote: the standby's graph becomes the primary's and commits the
	// rest of the stream.
	sgMu.Lock()
	promoted := sg
	sgMu.Unlock()
	if promoted.Generation() != standby.Gen() {
		t.Fatalf("promoted graph at gen %d, standby tracked %d", promoted.Generation(), standby.Gen())
	}
	for i := 4; i < 8; i++ {
		if err := promoted.ApplyBatch(batches[i]); err != nil {
			t.Fatalf("post-promotion batch %d: %v", i, err)
		}
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

	co, err := NewCoordinator(g, links)
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
