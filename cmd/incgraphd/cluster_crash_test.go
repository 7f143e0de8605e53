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

// TestClusterCrashRecovery is the distributed crash drill CI runs: build
// the real binary, start a coordinator daemon plus two shard-worker
// processes, ingest update bursts over the line protocol, SIGKILL one
// worker mid-stream (the in-flight commit must fail atomically), restart
// the worker on the same address (the coordinator reattaches it and
// re-ships its shards from authoritative segments), and require the final
// answers of every query class to be byte-identical to a single-process
// daemon fed the same stream. This mirrors the PR 4 crash drill one level
// up: there the serving process died; here a shard worker does.
func TestClusterCrashRecovery(t *testing.T) {
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

	// Seed graph + standing queries, shared by both daemons.
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1500, Labels: 6, GiantSCCFrac: 0.5, Seed: 13,
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
		"-shards", "8", "-checkpoint-bytes", "0", "-fsync", "none",
	}

	// Two shard workers, each on a loopback port it binds itself; a
	// restarted worker rebinds the address it first announced.
	startWorker := func(addr string) (*exec.Cmd, string) {
		cmd, addrs := startProc(t, bin, []string{"worker", "-addr", addr}, "worker")
		return cmd, addrs[0]
	}
	w1, w1Addr := startWorker("127.0.0.1:0")
	defer func() { w1.Process.Kill(); w1.Wait() }()
	w2, w2Addr := startWorker("127.0.0.1:0")
	defer func() { w2.Process.Kill(); w2.Wait() }()

	// Coordinator daemon (cluster) and single-process reference daemon.
	clusterDaemon, clusterAddr := startDaemon(t, bin,
		append([]string{"-store", filepath.Join(dir, "store-cluster"), "-graph", graphPath,
			"-addr", "127.0.0.1:0", "-cluster", w1Addr + "," + w2Addr}, engineArgs...))
	defer func() { clusterDaemon.Process.Kill(); clusterDaemon.Wait() }()
	singleDaemon, singleAddr := startDaemon(t, bin,
		append([]string{"-store", filepath.Join(dir, "store-single"), "-graph", graphPath,
			"-addr", "127.0.0.1:0"}, engineArgs...))
	defer func() { singleDaemon.Process.Kill(); singleDaemon.Wait() }()

	cc := dialLine(t, clusterAddr)
	defer cc.close()
	sc := dialLine(t, singleAddr)
	defer sc.close()

	scratch := g.Clone()
	rng := rand.New(rand.NewSource(31))
	nextBurst := func() incgraph.Batch {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 40, InsertRatio: 0.6, Locality: 0.7, Seed: rng.Int63(),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Normal streaming: both daemons get the same bursts.
	for burst := 0; burst < 3; burst++ {
		b := nextBurst()
		cc.stage(t, b)
		cc.cmd(t, "commit")
		sc.stage(t, b)
		sc.cmd(t, "commit")
	}

	// Crash a shard worker. The staged commit must fail atomically — the
	// reply is an error, nothing is logged or applied — so the same burst
	// can be restaged once the worker is back.
	if err := w1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w1.Wait()
	killed := nextBurst()
	cc.stage(t, killed)
	if reply := cc.raw(t, "commit"); !strings.HasPrefix(reply, "err staged: commit failed") {
		t.Fatalf("commit with a dead worker replied %q, want err", reply)
	}

	// The stat line must expose the failure counters the logs recorded.
	statLine := cc.cmd(t, "stat")
	for _, field := range []string{"accept_errs=0", "commit_errs=1", "cluster_workers=1/2"} {
		if !strings.Contains(statLine, field) {
			t.Fatalf("stat %q missing %q", statLine, field)
		}
	}
	if !strings.Contains(statLine, "cluster_remote_errs=") {
		t.Fatalf("stat %q missing cluster_remote_errs", statLine)
	}

	// Restart the worker on the same address: the next commit reattaches
	// it and re-ships its shards from the coordinator's segments.
	w1, _ = startWorker(w1Addr)
	cc.stage(t, killed)
	cc.cmd(t, "commit")
	sc.stage(t, killed)
	sc.cmd(t, "commit")

	// Post-recovery streaming still works.
	for burst := 0; burst < 2; burst++ {
		b := nextBurst()
		cc.stage(t, b)
		cc.cmd(t, "commit")
		sc.stage(t, b)
		sc.cmd(t, "commit")
	}

	// Byte-identical answers: the distributed run through a worker crash
	// and segment re-shipping equals the single-process run.
	for _, class := range []string{"kws", "rpq", "scc", "iso"} {
		clusterAns := cc.answer(t, class)
		singleAns := sc.answer(t, class)
		if clusterAns != singleAns {
			t.Fatalf("%s answers differ between cluster and single-process runs\ncluster:\n%s\nsingle:\n%s",
				class, clusterAns, singleAns)
		}
	}
	// Worker liveness in stat is served from a bounded-staleness cache
	// (statTTL), so the reattach may take one TTL to show up.
	deadline := time.Now().Add(5 * statTTL)
	for {
		statLine = cc.cmd(t, "stat")
		if strings.Contains(statLine, "cluster_workers=2/2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stat %q does not show the restarted worker reattached", statLine)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !strings.Contains(statLine, "cluster_resyncs=") {
		t.Fatalf("stat %q missing cluster_resyncs", statLine)
	}
}
