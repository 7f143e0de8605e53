package main

// Overload-protection tests for the serving layer, run against in-process
// servers (package main constructs them directly, so limits are exact and
// counters are inspectable). The contract under test is the degradation
// matrix of doc.go "Overload and admission control": every refusal is an
// explicit reply, every drop is a counter, and misbehaving clients never
// degrade the healthy ones past a small constant factor.

import (
	"errors"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/wire"
)

// newTestServer builds a server with the given limits over a fresh store
// of g, or of a small synthetic graph if g is nil, with scc standing on
// the store's own graph as incgraphd attaches it, so that query and answer
// have a class to hit. The store closes when the test ends.
func newTestServer(t *testing.T, g *incgraph.Graph, opts incgraph.DurableOptions, lim limits) *server {
	t.Helper()
	if g == nil {
		g = incgraph.SyntheticGraph(incgraph.GraphSpec{
			Nodes: 120, Edges: 600, Labels: 4, GiantSCCFrac: 0.5, Seed: 9,
		})
	}
	d, err := incgraph.CreateDurable(t.TempDir(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Attach(incgraph.MaintainSCC(incgraph.NewSCC(d.Graph()))); err != nil {
		t.Fatal(err)
	}
	return newServer(d, 0, lim)
}

// serveTest serves srv at 127.0.0.1:0 until the test ends and returns its
// address.
func serveTest(t *testing.T, srv *server) string {
	addr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error { return srv.serve("127.0.0.1:0", stop) })
	return addr
}

func TestConnCapShedsWithExplicitReply(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{maxConns: 2})
	addr := serveTest(t, srv)
	c1 := dial(t, addr)
	must(t, c1.Health) // round trip ⇒ the connection is tracked
	c2 := dial(t, addr)
	must(t, c2.Health)

	// The third is shed at accept. Its reply, and the hang-up after it,
	// are TestReplyBytes' "cut" rows; the read waits for the shed.
	c3 := dial(t, addr)
	c3.ReadLine()
	if got := srv.connsShed.Load(); got != 1 {
		t.Fatalf("conns_shed = %d, want 1", got)
	}

	// Capacity freed ⇒ new connections are served again.
	noErr(t, c1.Quit())
	waitFor(t, "conn slot freed", func() bool { return srv.nconns.Load() < 2 })
	must(t, dial(t, addr).Health)
}

func TestStagedCapRefusesWithoutCorruptingBatch(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{maxStaged: 3})
	c := dial(t, serveTest(t, srv))
	for i := 0; i < 3; i++ {
		noErr(t, c.Stage(incgraph.Batch{incgraph.InsNew(incgraph.NodeID(9000+2*i), incgraph.NodeID(9001+2*i), "a", "a")}))
	}
	refused(t, c, "+ 9100 9101 a a", "err staged: limit 3")
	if got := srv.stagedShed.Load(); got != 1 {
		t.Fatalf("staged_shed = %d, want 1", got)
	}
	// The refused update is not in the batch: exactly the 3 staged apply.
	if ack := must(t, c.Commit); ack.N != 3 {
		t.Fatalf("commit applied %d, want 3", ack.N)
	}
}

func TestOversizedLineRepliedBeforeCut(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{})
	addr := serveTest(t, srv)
	c := dial(t, addr)
	must(t, c.Health)

	// One line past the scanner cap, no newline needed: the scanner
	// refuses once the buffer fills.
	junk := make([]byte, 64<<10)
	for i := range junk {
		junk[i] = 'a'
	}
	for sent := 0; sent <= maxLineBytes; sent += len(junk) {
		if err := c.Send(string(junk)); err != nil {
			t.Fatalf("send oversized line: %v", err)
		}
	}
	// The reply is TestReplyBytes' "cut" row. After it comes EOF or RST
	// (the server closes with our junk still unread), never another
	// protocol line: the stream is unresynchronizable.
	c.ReadLine()
	if _, err := c.ReadLine(); err == nil || errors.As(err, new(*wire.Error)) {
		t.Fatal("connection survived an unresynchronizable stream")
	}
	if got := srv.linesTooLong.Load(); got != 1 {
		t.Fatalf("lines_too_long = %d, want 1", got)
	}
	// And the counter is operator-visible.
	if n := statField(t, dial(t, addr), "lines_too_long"); n != 1 {
		t.Fatalf("stat lines_too_long=%d, want 1", n)
	}
}

func TestCommitGateShedsWhenQueueFull(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{commitSlots: 1})
	addr := serveTest(t, srv)
	// Wedge the durable half of commits: the gate's single slot will be
	// held by the first committer, and with a zero-length queue the second
	// is shed immediately with an explicit reply.
	srv.commitMu.Lock()
	unwedge := sync.OnceFunc(srv.commitMu.Unlock)
	defer unwedge()

	c1 := dial(t, addr)
	noErr(t, c1.Stage(incgraph.Batch{incgraph.InsNew(9200, 9201, "a", "a")}))
	noErr(t, c1.Send("commit\n"))
	waitFor(t, "first commit admitted", func() bool {
		admitted, _, _ := srv.commitGate.stats()
		return admitted == 1
	})

	c2 := dial(t, addr)
	noErr(t, c2.Stage(incgraph.Batch{incgraph.InsNew(9300, 9301, "a", "a")}))
	refused(t, c2, "commit", "err overloaded: commit queue full")
	_, shed, _ := srv.commitGate.stats()
	if shed != 1 {
		t.Fatalf("commit_shed = %d, want 1", shed)
	}

	// Reads answer while every commit is wedged: the stalled "disk" holds
	// commitMu, never the read lock.
	start := time.Now()
	query(t, c2, "scc")
	must(t, c2.Stat)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("reads took %v behind a wedged commit path", elapsed)
	}

	unwedge()
	if ack, err := wire.ParseApplied(must(t, c1.ReadLine)); err != nil || ack.N != 1 {
		t.Fatalf("wedged commit after release: %+v, %v; want 1 applied", ack, err)
	}
	// The retry hint is honest: a shed committer succeeds once load drops.
	must(t, c2.Commit)
}

// TestStatCarriesEveryKeyPerfReads: perf/e2e.go fails a benchmark run
// whose "stat" lacks any of these nine overload counters, so a fresh
// daemon's stat must carry each of them as an integer — removing one fails
// here first.
func TestStatCarriesEveryKeyPerfReads(t *testing.T) {
	cfg := config{storeDir: t.TempDir(), addr: "127.0.0.1:0", fsync: "none", term: 1, lim: defaultLimits()}
	addr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })
	st := must(t, dial(t, addr).Stat)
	for _, key := range []string{"conns_shed", "staged_shed", "commit_shed", "commit_timeouts", "commit_cluster_shed",
		"read_shed", "read_timeouts", "commit_admitted", "read_admitted"} {
		if _, err := st.Uint(key); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlowLorisCut drives a byte-at-a-time client against a primary and a
// standby: the per-line deadline must cut it, the connection count must
// return to zero, and concurrent healthy clients' query latency must stay
// within 2x of their unloaded baseline (plus scheduler slack).
func TestSlowLorisCut(t *testing.T) {
	lim := limits{idle: 400 * time.Millisecond, opTimeout: 5 * time.Second}
	for _, role := range []string{rolePrimary, roleStandby} {
		t.Run(role, func(t *testing.T) {
			srv := newTestServer(t, nil, incgraph.DurableOptions{}, lim)
			addr := serveTest(t, srv)
			if role == roleStandby {
				srv.publish(false, func(v *view) { v.role = roleStandby })
				srv.tail.Store(tailDegraded) // serving reads, primary gone
			}

			// Unloaded baseline: one healthy client, cache-hit queries.
			h := dial(t, addr)
			baseline := queryP99(t, h, 50)

			// The attack: three slow-loris connections trickling one byte
			// per 50ms, never completing a line.
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				wg.Add(1)
				go func(conn net.Conn) {
					defer wg.Done()
					for {
						if _, err := conn.Write([]byte("x")); err != nil {
							return // cut by the server
						}
						time.Sleep(50 * time.Millisecond)
					}
				}(conn)
			}

			// Healthy client keeps its service level during the attack.
			during := queryP99(t, h, 50)
			if floor := 100 * time.Millisecond; during > 2*baseline && during > floor {
				t.Fatalf("healthy p99 %v under attack, baseline %v: degraded past 2x", during, baseline)
			}

			// Hang the healthy client up cleanly before the deadline can
			// cut it too, then require every loris dropped and counted and
			// the connection count drained to zero.
			noErr(t, h.Quit())
			h.Close()
			wg.Wait()
			waitFor(t, "connection count drains to zero", func() bool { return srv.nconns.Load() == 0 })
			if got := srv.idleDrops.Load(); got != 3 {
				t.Fatalf("idle_drops = %d, want 3", got)
			}
		})
	}
}

// queryP99 runs n cache-hit queries and returns the p99 round-trip time.
func queryP99(t *testing.T, c *wire.Client, n int) time.Duration {
	t.Helper()
	lat := make([]time.Duration, n)
	for i := range lat {
		start := time.Now()
		query(t, c, "scc")
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[n*99/100]
}

// waitFor polls cond for up to 10s — state transitions driven by server
// goroutines (deadline cuts, connection teardown) land asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
