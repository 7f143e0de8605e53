package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"incgraph"
	"incgraph/internal/wire"
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
	// The store keeps the seed snapshot's shard count.
	g.SetShards(4)
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
	args := []string{
		"-store", storeDir, "-graph", graphPath, "-addr", "127.0.0.1:0",
		"-kws", strings.Join(kwsQ.Keywords, ","), "-bound", fmt.Sprint(kwsQ.Bound),
		"-rpq", "l1.l2*.l3", "-iso", patPath, "-scc",
		"-checkpoint-bytes", "0",
	}

	daemon, addr := startDaemon(t, bin, args)

	// Ingest bursts of random updates through the protocol.
	c := dial(t, addr)
	scratch := g.Clone()
	rng := rand.New(rand.NewSource(11))
	for burst := 0; burst < 5; burst++ {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count: 50, InsertRatio: 0.6, Locality: 0.7, Seed: rng.Int63(),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		noErr(t, c.Stage(b))
		must(t, c.Commit)
		if burst == 2 {
			must(t, c.Checkpoint) // mid-stream checkpoint: recovery = snapshot + partial WAL
		}
	}
	classes := []string{"kws", "rpq", "scc", "iso"}
	// The answers, and the query replies: "ok CLASS SIZE gen=G" must come
	// back too — the view cut at start-up stands at the recovered generation.
	want := make(map[string]string, len(classes))
	wantQuery := make(map[string]wire.Read, len(classes))
	for _, class := range classes {
		want[class] = answer(t, c, class)
		wantQuery[class] = query(t, c, class)
	}
	c.Close()

	// Crash: SIGKILL, no shutdown path runs.
	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()

	// Restart on the same store and compare every answer byte for byte.
	daemon, addr = startDaemon(t, bin, args)
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	c = dial(t, addr)
	for _, class := range classes {
		if got := answer(t, c, class); got != want[class] {
			t.Fatalf("%s answers differ after crash recovery\nbefore:\n%s\nafter:\n%s", class, want[class], got)
		}
		if got := query(t, c, class); got != wantQuery[class] {
			t.Fatalf("query %s replied %+v after crash recovery, %+v before", class, got, wantQuery[class])
		}
	}
	// And the recovered daemon still ingests.
	noErr(t, c.Stage(incgraph.Batch{incgraph.InsNew(scratch.MaxNodeID()+1, scratch.MaxNodeID()+2, "fresh", "fresh")}))
	must(t, c.Commit)

	// The operational error counters the accept loop and commit path log
	// are exposed as stat fields (zero on this healthy restart), next to
	// the fan-out counters.
	st := must(t, c.Stat)
	for key, want := range map[string]string{"accept_errs": "0", "commit_errs": "0", "fanout_loops": "", "fanout_engaged": "", "fanout_helpers": ""} {
		if v, ok := st.Get(key); !ok || want != "" && v != want {
			t.Fatalf("stat %v: %s=%s, want %q", st, key, v, want)
		}
	}
}
