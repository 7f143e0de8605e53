package main

import (
	"fmt"
	"io"
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

// TestStandbyFailoverSmoke is the daemon-level HA drill: a primary with
// two shard workers and a feed hub; a standby daemon tailing the hub into
// its own fresh store. The primary is SIGKILLed mid-stream, the standby
// notices the dead feed (degraded reads keep working), an operator
// "promote" attaches it to the same workers at term+1, and the remaining
// stream goes through the promoted daemon. Every query class's final
// answer must be byte-identical to a single-process daemon fed the same
// stream — the cmd-level version of the root package's TestHistory
// "failover" shape.
func TestStandbyFailoverSmoke(t *testing.T) {
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

	// Seed graph + standing queries, shared by every daemon.
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1500, Labels: 6, GiantSCCFrac: 0.5, Seed: 17,
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
	engineArgs := []string{
		"-kws", strings.Join(kwsQ.Keywords, ","), "-bound", fmt.Sprint(kwsQ.Bound),
		"-rpq", "l1.l2*.l3", "-iso", patPath, "-scc",
	}

	var workerAddrs []string
	for i := 0; i < 2; i++ {
		w, addrs := startProc(t, bin, []string{"worker", "-addr", "127.0.0.1:0"}, "worker")
		defer func() { w.Process.Kill(); w.Wait() }()
		workerAddrs = append(workerAddrs, addrs[0])
	}
	workers := strings.Join(workerAddrs, ",")

	clusterArgs := []string{"-cluster", workers, "-term", "1"}
	primary, addrs := startProc(t, bin,
		append(append([]string{"-store", filepath.Join(dir, "store-primary"), "-graph", graphPath,
			"-addr", "127.0.0.1:0", "-hub", "127.0.0.1:0",
			"-shards", "8", "-checkpoint-bytes", "0", "-fsync", "none"}, clusterArgs...), engineArgs...),
		"", "hub")
	primaryAddr, hubAddr := addrs[0], addrs[1]
	defer func() { primary.Process.Kill(); primary.Wait() }()
	single, singleAddr := startDaemon(t, bin,
		append([]string{"-store", filepath.Join(dir, "store-single"), "-graph", graphPath,
			"-addr", "127.0.0.1:0", "-shards", "8", "-checkpoint-bytes", "0", "-fsync", "none"}, engineArgs...))
	defer func() { single.Process.Kill(); single.Wait() }()

	standby, standbyAddr := startDaemon(t, bin,
		append([]string{"standby", "-primary", hubAddr,
			"-store", filepath.Join(dir, "store-standby"), "-addr", "127.0.0.1:0",
			"-ttl", "1s", "-fsync", "none", "-checkpoint-bytes", "0",
			"-cluster", workers}, engineArgs...))
	defer func() { standby.Process.Kill(); standby.Wait() }()

	pc := dialLine(t, primaryAddr)
	defer pc.close()
	sc := dialLine(t, singleAddr)
	defer sc.close()
	bc := dialLine(t, standbyAddr)
	defer bc.close()

	stage := func(c *lineClient, b incgraph.Batch) {
		for _, u := range b {
			if u.Op == incgraph.OpInsert {
				c.cmd(t, fmt.Sprintf("+ %d %d %s %s", u.From, u.To, u.FromLabel, u.ToLabel))
			} else {
				c.cmd(t, fmt.Sprintf("- %d %d", u.From, u.To))
			}
		}
	}
	scratch := g.Clone()
	rng := rand.New(rand.NewSource(23))
	nextBurst := func() incgraph.Batch {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 40, InsertRatio: 0.6, Locality: 0.7, Seed: rng.Int63(),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		return b
	}

	// First half of the stream through the primary.
	for burst := 0; burst < 3; burst++ {
		b := nextBurst()
		stage(pc, b)
		pc.cmd(t, "commit")
		stage(sc, b)
		sc.cmd(t, "commit")
	}

	// The hub feeds in commit order but acks asynchronously: wait for the
	// standby to drain the stream, then check it serves current reads and
	// refuses writes.
	var health string
	for deadline := time.Now().Add(10 * time.Second); ; {
		health = bc.cmd(t, "health")
		if strings.Contains(health, "tail_seq=3") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby health %q never reached tail_seq=3", health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, field := range []string{"role=standby", "tail=live"} {
		if !strings.Contains(health, field) {
			t.Fatalf("standby health %q missing %q", health, field)
		}
	}
	if got, want := bc.answer(t, "scc"), sc.answer(t, "scc"); got != want {
		t.Fatalf("standby replica read diverged mid-stream\nstandby:\n%s\nsingle:\n%s", got, want)
	}
	bc.cmd(t, fmt.Sprintf("+ %d %d x y", scratch.MaxNodeID()+1, scratch.MaxNodeID()+2))
	if reply := bc.raw(t, "commit"); !strings.HasPrefix(reply, "err fenced: standby is read-only") {
		t.Fatalf("standby accepted a commit: %q", reply)
	}
	bc.cmd(t, "abort")

	// Kill the primary without ceremony. The standby's lease expires and
	// it degrades to serving its last durable generation.
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if h := bc.cmd(t, "health"); strings.Contains(h, "tail=degraded") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never noticed the dead primary: %s", bc.cmd(t, "health"))
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got, want := bc.answer(t, "kws"), sc.answer(t, "kws"); got != want {
		t.Fatal("degraded standby reads diverged from the last durable generation")
	}

	// Promote: the standby attaches to the same workers at term 2 and the
	// rest of the stream goes through it.
	reply := bc.cmd(t, "promote")
	for _, field := range []string{"term=2", "workers=2"} {
		if !strings.Contains(reply, field) {
			t.Fatalf("promote reply %q missing %q", reply, field)
		}
	}
	if reply := bc.raw(t, "promote"); !strings.HasPrefix(reply, "err fenced: already primary") {
		t.Fatalf("second promote replied %q", reply)
	}
	for burst := 0; burst < 3; burst++ {
		b := nextBurst()
		stage(bc, b)
		bc.cmd(t, "commit")
		stage(sc, b)
		sc.cmd(t, "commit")
	}

	// Byte-identical answers across the failover, and the promoted daemon
	// reports its new role and fencing term.
	for _, class := range []string{"kws", "rpq", "scc", "iso"} {
		if got, want := bc.answer(t, class), sc.answer(t, class); got != want {
			t.Fatalf("%s answers differ after failover\npromoted:\n%s\nsingle:\n%s", class, got, want)
		}
	}
	statLine := bc.cmd(t, "stat")
	for _, field := range []string{"role=primary", "cluster_workers=2/2", "cluster_term=2"} {
		if !strings.Contains(statLine, field) {
			t.Fatalf("promoted stat %q missing %q", statLine, field)
		}
	}
}

// TestPromoteFailureClosesDialedLinks: a promote that cannot reach every
// configured worker fails as a whole — and hangs up on the workers it did
// reach, instead of holding their sessions until the process exits.
func TestPromoteFailureClosesDialedLinks(t *testing.T) {
	dir := t.TempDir()
	cfg, _ := linFixture(t, dir)
	cfg.storeDir, cfg.addr, cfg.hubAddr = filepath.Join(dir, "store"), "127.0.0.1:0", "127.0.0.1:0"
	_, hubAddr, _ := serveInProcess(t, func(stop <-chan struct{}) error { return run(cfg, stop) })

	// The live "worker" only accepts; the dead one is an address nobody
	// listens on (port 1, tcpmux, is not served on loopback).
	live, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := live.Accept(); err == nil {
			accepted <- conn
		}
	}()
	standbyAddr, _, _ := serveInProcess(t, func(stop <-chan struct{}) error {
		return runStandby([]string{
			"-primary", hubAddr, "-store", filepath.Join(dir, "store-standby"), "-addr", "127.0.0.1:0",
			"-fsync", "none", "-cluster", live.Addr().String() + ",127.0.0.1:1",
			"-kws", cfg.kwsQuery, "-bound", fmt.Sprint(cfg.bound), "-rpq", cfg.rpqQuery, "-iso", cfg.isoPath, "-scc",
		}, stop)
	})
	sc, err := linDial(standbyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.conn.Close()
	if reply, err := sc.line("promote"); err != nil || !strings.HasPrefix(reply, "err fenced: promote failed") {
		t.Fatalf("promote with a dead worker: %q, %v", reply, err)
	}
	select {
	case conn := <-accepted:
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("the live worker's session read %d bytes, %v after the failed promote; want EOF", n, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the promote never dialed the live worker")
	}
	// Still a standby.
	if h, err := sc.line("health"); err != nil || !strings.Contains(h, "role=standby") {
		t.Fatalf("health after the failed promote: %q, %v", h, err)
	}
}
