package main

// Tests of stage-ack coalescing: a burst of stage lines that arrives
// together is acknowledged in one write, and no ack is ever left waiting
// for input the client has not sent.

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/wire"
)

// countingConn counts the writes the handler makes to its connection.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeClient serves one end of an in-memory pipe with srv.handle and
// returns the other end. A write into a pipe reaches the handler's scanner
// whole, so what is buffered together is exact (over TCP it is up to the
// kernel).
func pipeClient(t *testing.T, srv *server) (*wire.Client, *countingConn) {
	t.Helper()
	client, server := net.Pipe()
	cc := &countingConn{Conn: server}
	done := make(chan struct{})
	go func() {
		srv.handle(cc)
		close(done)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
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
