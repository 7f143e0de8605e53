package main

// Overload-protection tests for the serving layer, run against in-process
// servers (package main constructs them directly, so limits are exact and
// counters are inspectable). The contract under test is the degradation
// matrix of doc.go "Overload & admission control": every refusal is an
// explicit reply, every drop is a counter, and misbehaving clients never
// degrade the healthy ones past a small constant factor.

import (
	"fmt"
	"io"
	"net"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"incgraph"
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
	srv, err := newServer(d, 0, lim)
	if err != nil {
		t.Fatal(err)
	}
	return srv
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
	c1 := dialLine(t, addr)
	defer c1.close()
	c1.cmd(t, "health") // round trip ⇒ the connection is tracked
	c2 := dialLine(t, addr)
	defer c2.close()
	c2.cmd(t, "health")

	c3 := dialLine(t, addr)
	defer c3.close()
	reply, err := c3.r.ReadString('\n')
	if err != nil {
		t.Fatalf("shed connection: want an explicit overload reply, got %v", err)
	}
	if !strings.Contains(reply, "err overloaded: connection limit 2") {
		t.Fatalf("shed reply = %q, want connection-limit overload error", reply)
	}
	if _, err := c3.r.ReadString('\n'); err != io.EOF {
		t.Fatalf("shed connection stayed open: %v", err)
	}
	if got := srv.connsShed.Load(); got != 1 {
		t.Fatalf("conns_shed = %d, want 1", got)
	}

	// Capacity freed ⇒ new connections are served again.
	c1.cmd(t, "quit")
	c1.close()
	waitFor(t, "conn slot freed", func() bool { return srv.nconns.Load() < 2 })
	c4 := dialLine(t, addr)
	defer c4.close()
	c4.cmd(t, "health")
}

func TestStagedCapRefusesWithoutCorruptingBatch(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{maxStaged: 3})
	c := dialLine(t, serveTest(t, srv))
	defer c.close()
	for i := 0; i < 3; i++ {
		c.cmd(t, fmt.Sprintf("+ %d %d a a", 9000+2*i, 9001+2*i))
	}
	reply := c.raw(t, "+ 9100 9101 a a")
	if !strings.Contains(reply, "err staged: limit 3") {
		t.Fatalf("over-cap stage reply = %q, want staged-limit error", reply)
	}
	if got := srv.stagedShed.Load(); got != 1 {
		t.Fatalf("staged_shed = %d, want 1", got)
	}
	// The refused update is not in the batch: exactly the 3 staged apply.
	reply = c.cmd(t, "commit")
	if !strings.Contains(reply, "ok applied 3 ") {
		t.Fatalf("commit reply = %q, want 3 applied", reply)
	}
}

// rowless is a standing query without a row surface: embedding the interface
// hides the adapter's RowAnswer methods, as any wrapper of a Maintained does.
type rowless struct{ incgraph.Maintained }

// TestEngineWithoutRowsRefused: the daemon serves answers from the engines'
// row deltas and has no other read path, so an attached engine that lacks
// incgraph.RowAnswer is refused when the server is built, by class and type.
// Attach takes a wrapper only on a private graph; nothing is committed, so
// an empty one does.
func TestEngineWithoutRowsRefused(t *testing.T) {
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{Nodes: 20, Edges: 40, Labels: 2, Seed: 3})
	d, err := incgraph.CreateDurable(t.TempDir(), g, incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Attach(rowless{incgraph.MaintainSCC(incgraph.NewSCC(incgraph.NewGraph()))}); err != nil {
		t.Fatal(err)
	}
	_, err = newServer(d, 0, limits{})
	if err == nil {
		t.Fatal("newServer accepted an engine without a row surface")
	}
	for _, want := range []string{"scc", "main.rowless", "incgraph.RowAnswer"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("newServer: %q, want it to name %q", err, want)
		}
	}
}

// TestReadErrorStaysInErrorGrammar: the one way a read can still fail on a
// healthy daemon — no standing query of that class — is reported in one of
// the six error categories clients dispatch on, and the connection keeps
// serving.
func TestReadErrorStaysInErrorGrammar(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{})
	c, _ := pipeClient(t, srv)
	for _, cmd := range []string{"answer kws", "query kws"} {
		reply := c.raw(t, cmd)
		if !regexp.MustCompile(`^err (overloaded|disk|fenced|staged|idle|proto): `).MatchString(reply) {
			t.Fatalf("%s replied %q, outside the error grammar", cmd, reply)
		}
		if !strings.Contains(reply, `no standing query for class "kws"`) {
			t.Fatalf("%s replied %q, want the class named", cmd, reply)
		}
	}
	c.cmd(t, "query scc")
}

// TestUpdateLineWithExtraFieldsRefused: an update line with a field too
// many is a protocol error, not an update: "+ v w vlabel wlabel junk" and
// "- v w x" stage nothing.
func TestUpdateLineWithExtraFieldsRefused(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{})
	c, _ := pipeClient(t, srv)
	for _, line := range []string{"+ 1 2 a b junk", "- 1 2 x"} {
		if reply := c.raw(t, line); !strings.HasPrefix(reply, "err proto: ") {
			t.Fatalf("%q replied %q, want err proto", line, reply)
		}
	}
	if reply := c.raw(t, "commit"); !strings.HasPrefix(reply, "err staged: nothing staged") {
		t.Fatalf("commit after the refused lines replied %q, want nothing staged", reply)
	}
}

func TestOversizedLineRepliedBeforeCut(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{})
	addr := serveTest(t, srv)
	c := dialLine(t, addr)
	defer c.close()
	c.cmd(t, "health")

	// One line past the scanner cap, no newline needed: the scanner
	// refuses once the buffer fills.
	junk := make([]byte, 64<<10)
	for i := range junk {
		junk[i] = 'a'
	}
	for sent := 0; sent <= maxLineBytes; sent += len(junk) {
		if _, err := c.conn.Write(junk); err != nil {
			t.Fatalf("send oversized line: %v", err)
		}
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("oversized line: want an explicit reply before the cut, got %v", err)
	}
	if !strings.Contains(reply, "err proto: line too long") {
		t.Fatalf("oversized-line reply = %q, want 'err line too long'", reply)
	}
	// EOF or RST (the server closes with our junk still unread), never
	// another protocol line: the stream is unresynchronizable.
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection survived an unresynchronizable stream")
	}
	if got := srv.linesTooLong.Load(); got != 1 {
		t.Fatalf("lines_too_long = %d, want 1", got)
	}
	// And the counter is operator-visible.
	c2 := dialLine(t, addr)
	defer c2.close()
	if stat := c2.cmd(t, "stat"); !strings.Contains(stat, "lines_too_long=1") {
		t.Fatalf("stat %q missing lines_too_long=1", stat)
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

	c1 := dialLine(t, addr)
	defer c1.close()
	c1.cmd(t, "+ 9200 9201 a a")
	if _, err := fmt.Fprintln(c1.conn, "commit"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first commit admitted", func() bool {
		admitted, _, _ := srv.commitGate.stats()
		return admitted == 1
	})

	c2 := dialLine(t, addr)
	defer c2.close()
	c2.cmd(t, "+ 9300 9301 a a")
	reply := c2.raw(t, "commit")
	if !strings.Contains(reply, "err overloaded: commit queue full") {
		t.Fatalf("gated commit reply = %q, want queue-full overload error", reply)
	}
	_, shed, _ := srv.commitGate.stats()
	if shed != 1 {
		t.Fatalf("commit_shed = %d, want 1", shed)
	}

	// Reads answer while every commit is wedged: the stalled "disk" holds
	// commitMu, never the read lock.
	start := time.Now()
	c2.cmd(t, "query scc")
	c2.cmd(t, "stat")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("reads took %v behind a wedged commit path", elapsed)
	}

	unwedge()
	reply, err := c1.r.ReadString('\n')
	if err != nil {
		t.Fatalf("wedged commit after release: %v", err)
	}
	if !strings.Contains(reply, "ok applied 1 ") {
		t.Fatalf("wedged commit reply = %q, want success after release", reply)
	}
	// The retry hint is honest: a shed committer succeeds once load drops.
	c2.cmd(t, "commit")
}

// TestStatCarriesEveryKeyPerfReads: perf/e2e.go fails a benchmark run
// whose "stat" lacks any of these nine overload counters, so a fresh
// daemon's stat must carry each of them as an integer — removing one fails
// here first.
func TestStatCarriesEveryKeyPerfReads(t *testing.T) {
	cfg := config{storeDir: t.TempDir(), addr: "127.0.0.1:0", fsync: "none", term: 1, lim: defaultLimits()}
	addr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })
	c := dialLine(t, addr)
	defer c.close()
	stat := c.cmd(t, "stat")
	for _, key := range []string{"conns_shed", "staged_shed", "commit_shed", "commit_timeouts", "commit_cluster_shed",
		"read_shed", "read_timeouts", "commit_admitted", "read_admitted"} {
		statInt(t, stat, key)
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
			h := dialLine(t, addr)
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
			h.cmd(t, "quit")
			h.close()
			wg.Wait()
			waitFor(t, "connection count drains to zero", func() bool { return srv.nconns.Load() == 0 })
			if got := srv.idleDrops.Load(); got != 3 {
				t.Fatalf("idle_drops = %d, want 3", got)
			}
		})
	}
}

// queryP99 runs n cache-hit queries and returns the p99 round-trip time.
func queryP99(t *testing.T, c *lineClient, n int) time.Duration {
	t.Helper()
	lat := make([]time.Duration, n)
	for i := range lat {
		start := time.Now()
		c.cmd(t, "query scc")
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
