package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incgraph"
)

// TestStandbyFailoverSmoke is the daemon-level HA drill: a primary at 8
// shards with a feed hub; a standby daemon tailing the hub into its own
// fresh store. The primary is SIGKILLed mid-stream, the standby notices the
// dead feed (degraded reads keep working), an operator "promote" makes it
// the primary at term+1, and the remaining stream goes through the
// promoted daemon. Every query class's final
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
	// Every store keeps the seed snapshot's shard count.
	g.SetShards(8)
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

	primary, addrs := startProc(t, bin,
		append([]string{"-store", filepath.Join(dir, "store-primary"), "-graph", graphPath,
			"-addr", "127.0.0.1:0", "-hub", "127.0.0.1:0", "-term", "1",
			"-checkpoint-bytes", "0", "-fsync", "none"}, engineArgs...),
		"", "hub")
	primaryAddr, hubAddr := addrs[0], addrs[1]
	defer func() { primary.Process.Kill(); primary.Wait() }()
	single, singleAddr := startDaemon(t, bin,
		append([]string{"-store", filepath.Join(dir, "store-single"), "-graph", graphPath,
			"-addr", "127.0.0.1:0", "-checkpoint-bytes", "0", "-fsync", "none"}, engineArgs...))
	defer func() { single.Process.Kill(); single.Wait() }()

	standby, standbyAddr := startDaemon(t, bin,
		append([]string{"standby", "-primary", hubAddr,
			"-store", filepath.Join(dir, "store-standby"), "-addr", "127.0.0.1:0",
			"-ttl", "1s", "-fsync", "none", "-checkpoint-bytes", "0"}, engineArgs...))
	defer func() { standby.Process.Kill(); standby.Wait() }()

	pc := dialLine(t, primaryAddr)
	defer pc.close()
	sc := dialLine(t, singleAddr)
	defer sc.close()
	bc := dialLine(t, standbyAddr)
	defer bc.close()

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
		pc.stage(t, b)
		pc.cmd(t, "commit")
		sc.stage(t, b)
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

	// Promote: the standby takes over at term 2 and the rest of the stream
	// goes through it.
	if reply := bc.cmd(t, "promote"); reply != "ok promoted term=2" {
		t.Fatalf("promote replied %q, want \"ok promoted term=2\"", reply)
	}
	if reply := bc.raw(t, "promote"); !strings.HasPrefix(reply, "err fenced: already primary") {
		t.Fatalf("second promote replied %q", reply)
	}
	for burst := 0; burst < 3; burst++ {
		b := nextBurst()
		bc.stage(t, b)
		bc.cmd(t, "commit")
		sc.stage(t, b)
		sc.cmd(t, "commit")
	}

	// Byte-identical answers across the failover, and the promoted daemon
	// reports its new role and nothing of shard workers.
	for _, class := range []string{"kws", "rpq", "scc", "iso"} {
		if got, want := bc.answer(t, class), sc.answer(t, class); got != want {
			t.Fatalf("%s answers differ after failover\npromoted:\n%s\nsingle:\n%s", class, got, want)
		}
	}
	statLine := bc.cmd(t, "stat")
	if !strings.Contains(statLine, " role=primary ") {
		t.Fatalf("promoted stat %q missing role=primary", statLine)
	}
	if strings.Contains(statLine, " cluster_") {
		t.Fatalf("promoted stat %q carries a cluster_ key", statLine)
	}
}
