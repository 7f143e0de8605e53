package main

// Tests of stage-ack coalescing: a burst of stage lines that arrives
// together is acknowledged in one write, and no ack is ever left waiting
// for input the client has not sent.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/wire"
)

// countingConn counts the writes the handler makes to its connection and
// the deadlines it arms there; served is closed when the handler returns.
type countingConn struct {
	net.Conn
	writes, readArms, writeArms atomic.Int32
	served                      chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.readArms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.writeArms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// servePipe serves one end of an in-memory pipe with srv.handle and
// returns the other end. A write into a pipe reaches the handler's scanner
// whole, so what is buffered together is exact (over TCP it is up to the
// kernel), and a write out of it waits until the client has read it all.
func servePipe(t *testing.T, srv *server) (net.Conn, *countingConn) {
	t.Helper()
	client, server := net.Pipe()
	cc := &countingConn{Conn: server, served: make(chan struct{})}
	go func() {
		srv.handle(cc)
		close(cc.served)
	}()
	t.Cleanup(func() {
		client.Close()
		<-cc.served
	})
	return client, cc
}

// pipeClient is servePipe with a protocol client on the client end.
func pipeClient(t *testing.T, srv *server) (*wire.Client, *countingConn) {
	t.Helper()
	client, cc := servePipe(t, srv)
	return wire.NewClient(client, 5*time.Second), cc
}

func stageBurst(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "+ %d %d a b\n", 1000+i, 2000+i)
	}
	return sb.String()
}

func TestStageBurstAckedInOneWrite(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	c, cc := pipeClient(t, srv)
	const n = 32
	go c.Send(stageBurst(n))
	for i := 1; i <= n; i++ {
		expect(t, c, fmt.Sprintf("ok staged %d\n", i))
	}
	if w := cc.writes.Load(); w != 1 {
		t.Fatalf("%d stage lines in one write were acknowledged in %d writes, want 1", n, w)
	}
	// One line at a time is one write per ack, as before.
	for i := n + 1; i <= n+3; i++ {
		go c.Send(fmt.Sprintf("+ %d %d a b\n", 1000+i, 2000+i))
		expect(t, c, fmt.Sprintf("ok staged %d\n", i))
	}
	if w := cc.writes.Load(); w != 4 {
		t.Fatalf("3 single stage lines: %d writes in total, want 4", w)
	}
}

func TestStageBurstEndingInBlankLineIsAcked(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	for _, tail := range []string{"\n", "# done\n", "\n\n# done\n   \n"} {
		c, _ := pipeClient(t, srv)
		// The last ack is held when the handler sees the blank line behind
		// it; it must leave before the handler waits for more.
		go c.Send(stageBurst(3) + tail)
		for i := 1; i <= 3; i++ {
			expect(t, c, fmt.Sprintf("ok staged %d\n", i))
		}
	}
}

func TestPipelinedStageCommitQueryRepliesInOrder(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	pipe, _ := pipeClient(t, srv)
	tcp := dial(t, serveTest(t, srv))
	for i, c := range []*wire.Client{pipe, tcp} {
		// Distinct edges per connection: both commit into the same store.
		burst := strings.ReplaceAll(stageBurst(5), "+ 1", fmt.Sprintf("+ %d1", i+1))
		go c.Send(burst + "commit\nquery scc\n# trailing comment\nhealth\n")
		for n := 1; n <= 5; n++ {
			expect(t, c, fmt.Sprintf("ok staged %d\n", n))
		}
		expect(t, c, "ok applied 5 ")
		expect(t, c, "ok scc ")
		expect(t, c, "ok role=")
	}
}

// A burst of stage lines larger than the reply buffer still goes out under
// the write deadline, in order, with nothing lost.
func TestStageBurstLargerThanReplyBuffer(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	c, cc := pipeClient(t, srv)
	const n = 1500 // ~24 KB of acks through a 4 KB buffer
	go c.Send(stageBurst(n))
	for i := 1; i <= n; i++ {
		expect(t, c, fmt.Sprintf("ok staged %d\n", i))
	}
	if w := cc.writes.Load(); w < 2 || w > n/50 {
		t.Fatalf("%d acks left in %d writes, want a handful", n, w)
	}
}

// The per-connection deadlines cost one arm per wait and one per flush,
// not one per line: a 32-line burst that arrives in one write is read under
// the one read deadline armed when its wait began, its acks leave in one
// flush, and a commit's reply in another.
func TestDeadlinesArmedPerWaitAndPerFlush(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	c, cc := pipeClient(t, srv)
	const n = 32
	go c.Send(stageBurst(n))
	for i := 1; i <= n; i++ {
		expect(t, c, fmt.Sprintf("ok staged %d\n", i))
	}
	go c.Send("commit\n")
	expect(t, c, fmt.Sprintf("ok applied %d ", n))
	c.Close()
	<-cc.served
	// Three waits: the burst's, the commit's, and the one the hang-up ends.
	if r, w := cc.readArms.Load(), cc.writeArms.Load(); r != 3 || w != 2 {
		t.Fatalf("a %d-line burst and a commit armed %d read and %d write deadlines, want 3 and 2", n, r, w)
	}
}

// A client that stops draining its socket is cut at the op timeout: the
// handler's flush fails at the write deadline and the connection closes,
// instead of the handler waiting on the client forever.
func TestWriteDeadlineCutsStalledReader(t *testing.T) {
	const opTimeout = 100 * time.Millisecond
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{opTimeout: opTimeout})
	client, cc := servePipe(t, srv)
	start := time.Now()
	// The handler reads the line, then blocks writing its reply: nothing
	// on the client end reads.
	if _, err := client.Write([]byte("health\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cc.served:
	case <-time.After(10 * time.Second):
		t.Fatal("a client that reads nothing still holds its handler after 10s")
	}
	if took := time.Since(start); took < opTimeout {
		t.Fatalf("handler gave up after %v, before the %v write deadline", took, opTimeout)
	}
	if cc.writeArms.Load() != 1 {
		t.Fatalf("%d write deadlines armed for one reply, want 1", cc.writeArms.Load())
	}
}

// Staging costs its parse: on a warm connection, staging a 32-line burst
// and aborting it allocates nothing in the handler. The limits are zero
// because an in-memory pipe's deadline allocates a timer per arm, which a
// TCP connection's does not.
func TestStageAbortAllocatesNothing(t *testing.T) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{}, limits{})
	client, _ := servePipe(t, srv)
	const n = 32
	burst := []byte(stageBurst(n) + "abort\n")
	var want []byte
	for i := 1; i <= n; i++ {
		want = wire.AppendStaged(want, i)
	}
	want = wire.AppendAborted(want, n)
	got := make([]byte, len(want))
	cycle := func() {
		if _, err := client.Write(burst); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if !bytes.Equal(got, want) {
		t.Fatalf("replies %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("staging %d lines and aborting: %.1f allocs per cycle, want 0", n, allocs)
	}
}
