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
	"incgraph/internal/wire"
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

	pc, sc, bc := dial(t, primaryAddr), dial(t, singleAddr), dial(t, standbyAddr)

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
		for _, c := range []*wire.Client{pc, sc} {
			noErr(t, c.Stage(b))
			must(t, c.Commit)
		}
	}

	// The hub feeds in commit order but acks asynchronously: wait for the
	// standby to drain the stream, then check it serves current reads and
	// refuses writes.
	var health wire.Fields
	for deadline := time.Now().Add(10 * time.Second); ; {
		health = must(t, bc.Health)
		if seq, _ := health.Uint("tail_seq"); seq == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby health %v never reached tail_seq=3", health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for key, want := range map[string]string{"role": "standby", "tail": "live"} {
		if v, _ := health.Get(key); v != want {
			t.Fatalf("standby health %v: %s=%s, want %s", health, key, v, want)
		}
	}
	if got, want := answer(t, bc, "scc"), answer(t, sc, "scc"); got != want {
		t.Fatalf("standby replica read diverged mid-stream\nstandby:\n%s\nsingle:\n%s", got, want)
	}
	noErr(t, bc.Stage(incgraph.Batch{incgraph.InsNew(scratch.MaxNodeID()+1, scratch.MaxNodeID()+2, "x", "y")}))
	refused(t, bc, "commit", "err fenced: standby is read-only")
	must(t, bc.Abort)

	// Kill the primary without ceremony. The standby's lease expires and
	// it degrades to serving its last durable generation.
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if tail, _ := must(t, bc.Health).Get("tail"); tail == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never noticed the dead primary: %v", must(t, bc.Health))
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got, want := answer(t, bc, "kws"), answer(t, sc, "kws"); got != want {
		t.Fatal("degraded standby reads diverged from the last durable generation")
	}

	// Promote: the standby takes over at term 2 and the rest of the stream
	// goes through it.
	if term := must(t, bc.Promote); term != 2 {
		t.Fatalf("promoted at term %d, want 2", term)
	}
	refused(t, bc, "promote", "err fenced: already primary")
	for burst := 0; burst < 3; burst++ {
		b := nextBurst()
		for _, c := range []*wire.Client{bc, sc} {
			noErr(t, c.Stage(b))
			must(t, c.Commit)
		}
	}

	// Byte-identical answers across the failover, and the promoted daemon
	// reports its new role and nothing of shard workers.
	for _, class := range []string{"kws", "rpq", "scc", "iso"} {
		if got, want := answer(t, bc, class), answer(t, sc, class); got != want {
			t.Fatalf("%s answers differ after failover\npromoted:\n%s\nsingle:\n%s", class, got, want)
		}
	}
	st := must(t, bc.Stat)
	if role, _ := st.Get("role"); role != "primary" {
		t.Fatalf("promoted stat %v: role=%s, want primary", st, role)
	}
	for _, f := range st {
		if strings.HasPrefix(f.Key, "cluster_") {
			t.Fatalf("promoted stat %v carries a cluster_ key", st)
		}
	}
}
