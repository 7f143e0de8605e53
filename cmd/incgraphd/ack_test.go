package main

// Tests of stage-ack coalescing: a burst of stage lines that arrives
// together is acknowledged in one write, and no ack is ever left waiting
// for input the client has not sent.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"incgraph"
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
func pipeClient(t *testing.T, srv *server) (*lineClient, *countingConn) {
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
	return &lineClient{conn: client, r: bufio.NewReader(client)}, cc
}

// send writes text in one Write without waiting for replies (a pipe write
// returns only when the handler has read it all). A failed write shows as
// the reply that never comes.
func (c *lineClient) send(text string) {
	go c.conn.Write([]byte(text))
}

func (c *lineClient) expect(t *testing.T, prefix string) string {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("waiting for %q: %v", prefix, err)
	}
	if !strings.HasPrefix(reply, prefix) {
		t.Fatalf("reply %q, want %q…", strings.TrimSpace(reply), prefix)
	}
	return reply
}

func stageBurst(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "+ %d %d a b\n", 1000+i, 2000+i)
	}
	return sb.String()
}

func TestStageBurstAckedInOneWrite(t *testing.T) {
	srv, _ := testServer(t, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	c, cc := pipeClient(t, srv)
	const n = 32
	c.send(stageBurst(n))
	for i := 1; i <= n; i++ {
		c.expect(t, fmt.Sprintf("ok staged %d\n", i))
	}
	if w := cc.writes.Load(); w != 1 {
		t.Fatalf("%d stage lines in one write were acknowledged in %d writes, want 1", n, w)
	}
	// One line at a time is one write per ack, as before.
	for i := n + 1; i <= n+3; i++ {
		c.send(fmt.Sprintf("+ %d %d a b\n", 1000+i, 2000+i))
		c.expect(t, fmt.Sprintf("ok staged %d\n", i))
	}
	if w := cc.writes.Load(); w != 4 {
		t.Fatalf("3 single stage lines: %d writes in total, want 4", w)
	}
}

func TestStageBurstEndingInBlankLineIsAcked(t *testing.T) {
	srv, _ := testServer(t, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	for _, tail := range []string{"\n", "# done\n", "\n\n# done\n   \n"} {
		c, _ := pipeClient(t, srv)
		// The last ack is held when the handler sees the blank line behind
		// it; it must leave before the handler waits for more.
		c.send(stageBurst(3) + tail)
		for i := 1; i <= 3; i++ {
			c.expect(t, fmt.Sprintf("ok staged %d\n", i))
		}
	}
}

func TestPipelinedStageCommitQueryRepliesInOrder(t *testing.T) {
	srv, addr := testServer(t, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	pipe, _ := pipeClient(t, srv)
	tcp := dialLine(t, addr)
	defer tcp.close()
	for i, c := range []*lineClient{pipe, tcp} {
		// Distinct edges per connection: both commit into the same store.
		burst := strings.ReplaceAll(stageBurst(5), "+ 1", fmt.Sprintf("+ %d1", i+1))
		c.send(burst + "commit\nquery scc\n# trailing comment\nhealth\n")
		for n := 1; n <= 5; n++ {
			c.expect(t, fmt.Sprintf("ok staged %d\n", n))
		}
		c.expect(t, "ok applied 5")
		c.expect(t, "ok scc")
		c.expect(t, "ok ")
	}
}

// A burst of stage lines larger than the reply buffer still goes out under
// the write deadline, in order, with nothing lost.
func TestStageBurstLargerThanReplyBuffer(t *testing.T) {
	srv, _ := testServer(t, limits{opTimeout: 5 * time.Second, idle: 5 * time.Second})
	c, cc := pipeClient(t, srv)
	const n = 1500 // ~24 KB of acks through a 4 KB buffer
	c.send(stageBurst(n))
	for i := 1; i <= n; i++ {
		c.expect(t, fmt.Sprintf("ok staged %d\n", i))
	}
	if w := cc.writes.Load(); w < 2 || w > n/50 {
		t.Fatalf("%d acks left in %d writes, want a handful", n, w)
	}
}

// classOnly is a standing query of which the ack uses only the class name.
type classOnly struct {
	incgraph.Maintained
	class string
}

func (c classOnly) Class() string { return c.class }

// TestAppliedLineMatchesFmt pins the commit ack, which clients parse (perf
// sums |ΔO| per class out of it), and the stage ack to the fmt renderings
// they replaced.
func TestAppliedLineMatchesFmt(t *testing.T) {
	engines := []incgraph.Maintained{classOnly{class: "kws"}, classOnly{class: "rpq"}, classOnly{class: "iso"}, classOnly{class: "scc"}}
	cases := []struct {
		n    int
		gen  uint64
		sums []incgraph.DeltaSummary
	}{
		{1, 0, []incgraph.DeltaSummary{{}, {}, {}, {}}},
		{32, 1234567, []incgraph.DeltaSummary{{Added: 3, Removed: 1, Updated: 12}, {Added: 40}, {Removed: 7}, {Added: 1, Removed: 2}}},
		{1 << 20, 1<<64 - 1, []incgraph.DeltaSummary{{Added: 1 << 40, Removed: 1 << 41, Updated: 1 << 42}, {}, {}, {}}},
	}
	for _, c := range cases {
		if got, want := string(appendStagedLine(nil, c.n)), fmt.Sprintf("ok staged %d\n", c.n); got != want {
			t.Fatalf("appendStagedLine = %q, fmt renders %q", got, want)
		}
		for k := 0; k <= len(engines); k++ {
			var want strings.Builder
			fmt.Fprintf(&want, "ok applied %d gen=%d", c.n, c.gen)
			for i, m := range engines[:k] {
				fmt.Fprintf(&want, " %s=%s", m.Class(), c.sums[i])
			}
			if got := appliedLine(c.n, c.gen, engines[:k], c.sums[:k]); got != want.String() {
				t.Fatalf("appliedLine = %q, fmt renders %q", got, want.String())
			}
		}
	}
}
