package main

// The reply bytes of every command the daemon answers, pinned byte for
// byte: the stage, abort and commit acks (the commit ack at zero to four
// classes), query and answer with the answer's "." terminator, the keys of
// stat and health in order, promote, checkpoint and bye, and every error
// category, the accept-time shed included. Clients parse these lines; a
// change here is a protocol change.

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"incgraph"
	"incgraph/internal/wire"
)

// pinConfig writes a four-node graph and a one-edge ISO pattern under dir
// and returns a daemon config standing the first k of kws, rpq, iso and
// scc (attachEngines' order) over them, with its store under dir.
//
//	1(a) → 2(b) → 3(a) → 4(b)
func pinConfig(t *testing.T, dir string, k int) config {
	t.Helper()
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := config{
		storeDir: filepath.Join(dir, "store"), addr: "127.0.0.1:0", fsync: "none", term: 1,
		graphPath: write("g.txt", "n 1 a\nn 2 b\nn 3 a\nn 4 b\ne 1 2\ne 2 3\ne 3 4\n"),
		kwsQuery:  "a,b", bound: 1, rpqQuery: "a.b",
		isoPath: write("p.txt", "n 0 a\nn 1 b\ne 0 1\n"), scc: true,
	}
	if k < 4 {
		cfg.scc = false
	}
	if k < 3 {
		cfg.isoPath = ""
	}
	if k < 2 {
		cfg.rpqQuery = ""
	}
	if k < 1 {
		cfg.kwsQuery = ""
	}
	return cfg
}

// pinServer builds a server over a fresh store of pinConfig's graph with
// its first k classes attached.
func pinServer(t *testing.T, k int, lim limits) *server {
	t.Helper()
	cfg := pinConfig(t, t.TempDir(), k)
	g, err := incgraph.LoadGraphFile(cfg.graphPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := incgraph.CreateDurable(cfg.storeDir, g, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := attachEngines(d, cfg); err != nil {
		t.Fatal(err)
	}
	return newServer(d, 0, lim)
}

// pipeTo serves one end of an in-memory pipe with srv.handle until the
// test ends and returns a client on the other.
func pipeTo(t *testing.T, srv *server) *wire.Client {
	c, _ := pipeClient(t, srv)
	return c
}

// say sends line and requires the reply to be want.
func say(t *testing.T, c *wire.Client, line, want string) {
	t.Helper()
	noErr(t, c.Send(line+"\n"))
	hear(t, c, want)
}

// hear requires the next reply lines to be want, byte for byte.
func hear(t *testing.T, c *wire.Client, want string) {
	t.Helper()
	var got strings.Builder
	var e *wire.Error
	for range strings.Count(want, "\n") {
		line, err := c.ReadLine()
		if err != nil && !errors.As(err, &e) {
			t.Fatalf("after %q: %v", got.String(), err)
		}
		got.WriteString(line + "\n")
	}
	if got.String() != want {
		t.Fatalf("replied\n%q\nwant\n%q", got.String(), want)
	}
}

// keys requires f's keys to be want, in want's order, and returns f.
func keys(t *testing.T, f wire.Fields, want ...string) wire.Fields {
	t.Helper()
	var got []string
	for _, fd := range f {
		got = append(got, fd.Key)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("keys\n%v\nwant\n%v", got, want)
	}
	return f
}

// statKeys are the keys of a primary's stat without a hub; a hub adds
// standbys, a standby the tail keys.
var statKeys = []string{"role", "nodes", "edges", "gen", "epoch", "walseq", "walbytes", "classes",
	"view_gen", "view_delta_rows", "view_folds", "accept_errs", "commit_errs",
	"conns", "conns_shed", "staged_shed", "lines_too_long", "idle_drops",
	"commit_admitted", "commit_shed", "commit_timeouts", "commit_cluster_shed",
	"read_admitted", "read_shed", "read_timeouts",
	"disk", "disk_retries", "disk_ro_enters", "disk_ro_exits", "disk_shed",
	"goroutines", "heap_bytes", "fanout_loops", "fanout_engaged", "fanout_helpers"}

func TestReplyBytes(t *testing.T) {
	t.Run("acks", func(t *testing.T) {
		// The commit ack names each attached class in attach order.
		applied := []string{
			"ok applied 2 gen=11\n",
			"ok applied 2 gen=11 kws=ΔO{+2 −0 ~0}\n",
			"ok applied 2 gen=11 kws=ΔO{+2 −0 ~0} rpq=ΔO{+1 −0 ~0}\n",
			"ok applied 2 gen=11 kws=ΔO{+2 −0 ~0} rpq=ΔO{+1 −0 ~0} iso=ΔO{+1 −0 ~0}\n",
			"ok applied 2 gen=11 kws=ΔO{+2 −0 ~0} rpq=ΔO{+1 −0 ~0} iso=ΔO{+1 −0 ~0} scc=ΔO{+3 −4 ~0}\n",
		}
		for k, want := range applied {
			c := pipeTo(t, pinServer(t, k, limits{}))
			say(t, c, "+ 9 9", "ok staged 1\n")
			say(t, c, "- 1 2", "ok staged 2\n")
			say(t, c, "abort", "ok aborted 2\n")
			say(t, c, "abort", "ok aborted 0\n")
			say(t, c, "+ 4 1", "ok staged 1\n")
			say(t, c, "+ 5 6 a b", "ok staged 2\n")
			say(t, c, "commit", want)
		}
	})

	t.Run("reads", func(t *testing.T) {
		c := pipeTo(t, pinServer(t, 4, limits{}))
		say(t, c, "query kws", "ok kws 3 gen=7\n")
		say(t, c, "query scc", "ok scc 4 gen=7\n")
		say(t, c, "answer rpq", "ok rpq 2 gen=7\npair 1 2\npair 3 4\n.\n")
		say(t, c, "answer scc", "ok scc 4 gen=7\ncomp 1\ncomp 2\ncomp 3\ncomp 4\n.\n")
		say(t, c, "+ 4 1", "ok staged 1\n")
		say(t, c, "commit", "ok applied 1 gen=8 kws=ΔO{+1 −0 ~0} rpq=ΔO{+0 −0 ~0} iso=ΔO{+0 −0 ~0} scc=ΔO{+1 −4 ~0}\n")
		say(t, c, "answer scc", "ok scc 1 gen=8\ncomp 1 2 3 4\n.\n")
		say(t, c, "answer iso", "ok iso 2 gen=8\nmatch 1 2\nmatch 3 4\n.\n")
		say(t, c, "checkpoint", "ok checkpoint epoch=2\n")
		say(t, c, "quit", "ok bye\n")
		if line, err := c.ReadLine(); err != io.EOF {
			t.Fatalf("after bye: %q, %v", line, err)
		}
	})

	t.Run("stat and health", func(t *testing.T) {
		c := pipeTo(t, pinServer(t, 4, limits{}))
		st := keys(t, must(t, c.Stat), statKeys...)
		for k, v := range map[string]string{"role": "primary", "nodes": "4", "edges": "3", "gen": "7", "epoch": "1",
			"classes": "kws,rpq,iso,scc", "disk": "healthy", "commit_cluster_shed": "0"} {
			if got, _ := st.Get(k); got != v {
				t.Fatalf("stat %s=%s, want %s", k, got, v)
			}
		}
		keys(t, must(t, c.Health), "role", "gen", "walseq", "disk")
		c = pipeTo(t, pinServer(t, 0, limits{}))
		if classes, _ := keys(t, must(t, c.Stat), statKeys...).Get("classes"); classes != "" {
			t.Fatalf("stat without classes: classes=%s", classes)
		}
	})

	t.Run("errors", func(t *testing.T) {
		srv := pinServer(t, 4, limits{maxStaged: 1, commitSlots: 1, readSlots: 1})
		c := pipeTo(t, srv)
		say(t, c, "bogus", "err proto: unknown command \"bogus\"\n")
		say(t, c, "+ 1", "err proto: want '+ v w [vlabel [wlabel]]' or '- v w'\n")
		say(t, c, "- 1 x", "err proto: bad target id: strconv.ParseInt: parsing \"x\": invalid syntax\n")
		say(t, c, "query", "err proto: usage: query CLASS\n")
		say(t, c, "answer scc x", "err proto: usage: answer CLASS\n")
		say(t, c, "query nope", "err proto: no standing query for class \"nope\"\n")
		say(t, c, "answer nope", "err proto: no standing query for class \"nope\"\n")
		say(t, c, "+ 1 2 a b junk", "err proto: want '+ v w [vlabel [wlabel]]' or '- v w'\n")
		say(t, c, "- 1 2 x", "err proto: want '+ v w [vlabel [wlabel]]' or '- v w'\n")
		say(t, c, "commit", "err staged: nothing staged\n")
		say(t, c, "- 1 3", "ok staged 1\n")
		say(t, c, "- 1 4", "err staged: limit 1 reached; commit or abort first\n")
		say(t, c, "commit", "err staged: commit failed: update 0: graph: update cannot be applied: delete of missing edge (1,3)\n")

		srv.commitGate.enter()
		say(t, c, "+ 1 3", "ok staged 1\n")
		say(t, c, "commit", "err overloaded: commit queue full; retry in 100ms\n")
		srv.commitGate.exit()
		srv.readGate.enter()
		say(t, c, "query scc", "err overloaded: read queue full; retry in 100ms\n")
		srv.readGate.exit()

		srv.diskState.Store(diskReadOnly)
		say(t, c, "commit", "err disk: degraded; read-only; retry in 100ms\n")
		srv.diskState.Store(diskHealthy)

		say(t, c, "promote", "err fenced: already primary\n")
		srv.publish(false, func(v *view) { v.role = roleStandby })
		say(t, c, "commit", "err fenced: standby is read-only; promote to accept commits\n")
		srv.primaryAddr = "192.0.2.1:7421"
		srv.tail.Store(tailStale)
		say(t, c, "query scc", "err fenced: stale replica; redirect 192.0.2.1:7421\n")
	})

	// A command that takes no argument refuses one.
	t.Run("trailing fields", func(t *testing.T) {
		c := pipeTo(t, pinServer(t, 1, limits{}))
		for _, cmd := range []string{"commit", "abort", "checkpoint", "stat", "health", "promote", "quit"} {
			say(t, c, cmd+" now", "err proto: usage: "+cmd+"\n")
		}
		say(t, c, "query kws", "ok kws 3 gen=7\n")
	})

	t.Run("cut", func(t *testing.T) {
		c := pipeTo(t, pinServer(t, 1, limits{idle: 50 * time.Millisecond}))
		hear(t, c, "err idle: no complete line in 50ms\n")
		c = pipeTo(t, pinServer(t, 1, limits{}))
		go c.Send(string(make([]byte, maxLineBytes+1)))
		hear(t, c, "err proto: line too long; max 1048576 bytes per line\n")
		srv := pinServer(t, 1, limits{maxConns: 1})
		addr := serveTest(t, srv)
		say(t, dial(t, addr), "health", "ok role=primary gen=7 walseq=0 disk=healthy\n")
		shed := dial(t, addr)
		hear(t, shed, "err overloaded: connection limit 1 reached; retry in 100ms\n")
		if line, err := shed.ReadLine(); err != io.EOF {
			t.Fatalf("after the shed: %q, %v", line, err)
		}
	})

	t.Run("standby", func(t *testing.T) {
		dir := t.TempDir()
		cfg := pinConfig(t, dir, 4)
		cfg.hubAddr = "127.0.0.1:0"
		primaryAddr, hubAddr, _ := serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })
		standbyAddr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error {
			return runStandby(standbyArgs(cfg, hubAddr, filepath.Join(dir, "store-standby"), "-ttl", "5s"), stop)
		})
		p, s := dial(t, primaryAddr), dial(t, standbyAddr)
		keys(t, must(t, p.Stat), append(slices.Clone(statKeys), "standbys")...)
		keys(t, must(t, p.Health), "role", "gen", "walseq", "disk", "standbys")
		keys(t, must(t, s.Stat), append(slices.Clone(statKeys), "tail", "tail_term", "tail_seq", "tail_gen")...)
		keys(t, must(t, s.Health), "role", "gen", "walseq", "disk", "tail", "tail_seq")
		say(t, s, "promote", "ok promoted term=2\n")
		say(t, s, "promote", "err fenced: already primary\n")
	})
}
