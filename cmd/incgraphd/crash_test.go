package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incgraph"
)

// TestCrashRecoverySmoke is the end-to-end crash drill CI runs: build the
// real binary, start it on a store, ingest update bursts over the wire,
// capture every class's full answer, SIGKILL the process mid-flight,
// restart it on the same store, and require byte-identical answers. This
// exercises the whole stack — line protocol, WAL, snapshot, recovery
// replay — exactly as a production crash would.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "incgraphd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Seed graph + ISO pattern files.
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 400, Edges: 2000, Labels: 6, GiantSCCFrac: 0.5, Seed: 3,
	})
	graphPath := filepath.Join(dir, "seed.snap")
	if err := incgraph.WriteSnapshotFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	pat, err := incgraph.RandomISOPattern(g, 3, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	patPath := filepath.Join(dir, "pattern.txt")
	pf, err := os.Create(patPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := incgraph.WriteGraph(pf, pat.Graph()); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	kwsQ, err := incgraph.RandomKWSQuery(g, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")
	addr := pickAddr(t)
	args := []string{
		"-store", storeDir, "-graph", graphPath, "-addr", addr,
		"-kws", strings.Join(kwsQ.Keywords, ","), "-bound", fmt.Sprint(kwsQ.Bound),
		"-rpq", "l1.l2*.l3", "-iso", patPath, "-scc",
		"-shards", "4", "-checkpoint-bytes", "0",
	}

	daemon := startDaemon(t, bin, args, addr)

	// Ingest bursts of random updates through the protocol.
	c := dialLine(t, addr)
	scratch := g.Clone()
	rng := rand.New(rand.NewSource(11))
	for burst := 0; burst < 5; burst++ {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 50, InsertRatio: 0.6, Locality: 0.7, Seed: rng.Int63(),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		for _, u := range b {
			if u.Op == incgraph.OpInsert {
				c.cmd(t, fmt.Sprintf("+ %d %d %s %s", u.From, u.To, u.FromLabel, u.ToLabel))
			} else {
				c.cmd(t, fmt.Sprintf("- %d %d", u.From, u.To))
			}
		}
		c.cmd(t, "commit")
		if burst == 2 {
			c.cmd(t, "checkpoint") // mid-stream checkpoint: recovery = snapshot + partial WAL
		}
	}
	classes := []string{"kws", "rpq", "scc", "iso"}
	// The answers, and the query replies: "ok CLASS SIZE gen=G" must come
	// back too — the view cut at start-up stands at the recovered generation.
	want := make(map[string]string, len(classes))
	wantQuery := make(map[string]string, len(classes))
	for _, class := range classes {
		want[class] = c.answer(t, class)
		wantQuery[class] = c.cmd(t, "query "+class)
		if !strings.Contains(wantQuery[class], " gen=") {
			t.Fatalf("query %s replied %q, want the generation it was served at", class, wantQuery[class])
		}
	}
	c.close()

	// Crash: SIGKILL, no shutdown path runs.
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()

	// Restart on the same store and compare every answer byte for byte.
	daemon = startDaemon(t, bin, args, addr)
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	c = dialLine(t, addr)
	defer c.close()
	for _, class := range classes {
		if got := c.answer(t, class); got != want[class] {
			t.Fatalf("%s answers differ after crash recovery\nbefore:\n%s\nafter:\n%s", class, want[class], got)
		}
		if got := c.cmd(t, "query "+class); got != wantQuery[class] {
			t.Fatalf("query %s replied %q after crash recovery, %q before", class, got, wantQuery[class])
		}
	}
	// And the recovered daemon still ingests.
	c.cmd(t, fmt.Sprintf("+ %d %d fresh fresh", scratch.MaxNodeID()+1, scratch.MaxNodeID()+2))
	c.cmd(t, "commit")

	// The operational error counters the accept loop and commit path log
	// are exposed as stat fields (zero on this healthy restart), next to
	// the fan-out counters and the one graph the recovered engines share.
	statLine := c.cmd(t, "stat")
	for _, field := range []string{"accept_errs=0", "commit_errs=0", "fanout_loops=", "fanout_engaged=", "fanout_helpers=", " graphs=1 ", " engines_inplace="} {
		if !strings.Contains(statLine, field) {
			t.Fatalf("stat %q missing %q", statLine, field)
		}
	}
}

// startDaemon launches the binary and waits until its port accepts.
func startDaemon(t *testing.T, bin string, args []string, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return cmd
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatalf("daemon on %s never came up", addr)
	return nil
}

// pickAddr reserves a free localhost port.
func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// lineClient drives the daemon's line protocol.
type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialLine(t *testing.T, addr string) *lineClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return &lineClient{conn: conn, r: bufio.NewReader(conn)}
}

func (c *lineClient) close() { c.conn.Close() }

// cmd sends one command and requires an "ok" reply.
func (c *lineClient) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatalf("send %q: %v", line, err)
	}
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("reply to %q: %v", line, err)
	}
	reply = strings.TrimSpace(reply)
	if !strings.HasPrefix(reply, "ok") {
		t.Fatalf("command %q failed: %s", line, reply)
	}
	return reply
}

// answer fetches the dot-terminated canonical answer dump of one class.
func (c *lineClient) answer(t *testing.T, class string) string {
	t.Helper()
	c.cmd(t, "answer "+class)
	var sb strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("answer %s: %v", class, err)
		}
		if strings.TrimSpace(line) == "." {
			return sb.String()
		}
		sb.WriteString(line)
	}
}
