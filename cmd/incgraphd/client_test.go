package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"incgraph"
)

// lineClient drives the daemon's line protocol. line and read report
// errors instead of failing a test, so a reader goroutine can use them;
// the methods that take a *testing.T fail it.
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

// line sends one command and returns its reply line.
func (c *lineClient) line(cmd string) (string, error) {
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		return "", err
	}
	reply, err := c.r.ReadString('\n')
	return strings.TrimSpace(reply), err
}

// raw sends one command and returns the reply line without requiring an
// "ok" prefix (for asserting error replies).
func (c *lineClient) raw(t *testing.T, line string) string {
	t.Helper()
	reply, err := c.line(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return reply
}

// cmd sends one command and requires an "ok" reply.
func (c *lineClient) cmd(t *testing.T, line string) string {
	t.Helper()
	reply := c.raw(t, line)
	if !strings.HasPrefix(reply, "ok") {
		t.Fatalf("command %q failed: %s", line, reply)
	}
	return reply
}

// read issues one query or answer and returns the generation and size the
// reply names, and for an answer the dot-terminated dump.
func (c *lineClient) read(cmd, class string) (gen uint64, size int, dump string, err error) {
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

// answer fetches the dot-terminated canonical answer dump of one class.
func (c *lineClient) answer(t *testing.T, class string) string {
	t.Helper()
	_, _, dump, err := c.read("answer", class)
	if err != nil {
		t.Fatal(err)
	}
	return dump
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

// stage sends b's updates in one write and reads an ack for each; the
// acks may come back while the write is still going in. An insertion that
// labels only its second endpoint names its first with a placeholder: the
// line cannot say "no label, then one", and an existing endpoint's label
// is ignored.
func (c *lineClient) stage(t *testing.T, b incgraph.Batch) {
	t.Helper()
	var sb strings.Builder
	for _, u := range b {
		if u.Op == incgraph.OpDelete {
			fmt.Fprintf(&sb, "- %d %d\n", u.From, u.To)
			continue
		}
		from := u.FromLabel
		if from == "" && u.ToLabel != "" {
			from = "_"
		}
		fmt.Fprintf(&sb, "+ %d %d %s %s\n", u.From, u.To, from, u.ToLabel)
	}
	c.send(sb.String())
	for range b {
		c.expect(t, "ok staged")
	}
}
