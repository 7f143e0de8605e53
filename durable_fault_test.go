package incgraph_test

// Targeted drills over the Durable layer, beside TestHistory: disk faults
// (an fsync that fails, a WAL append that fails after phase 1), a torn or
// corrupt WAL tail, a cluster placed on a recovered store, and the
// attach-time guards. The invariant of the disk drills is "acked ⇒
// durable, not acked ⇒ absent after replay": a recovered store holds
// exactly the acknowledged history, and its engines, attached in place,
// answer what from-scratch builds on that history do.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incgraph"
	"incgraph/internal/history"
	"incgraph/internal/history/oracle"
	"incgraph/internal/store"
)

// matchesOracle fails unless d holds sim and every engine answers what a
// from-scratch build on sim does, with its audit green.
func matchesOracle(t *testing.T, what string, d *incgraph.Durable, engines map[string]oracle.Engine, build oracle.Builders, sim *incgraph.Graph) {
	t.Helper()
	if !d.Graph().Equal(sim) {
		t.Fatalf("%s: the store's graph is not the history's", what)
	}
	for class, e := range engines {
		if got, want := e.Answer(), build[class](sim.Clone()).Answer(); got != want {
			t.Fatalf("%s: %s answers differently from a fresh build: %s", what, class, oracle.FirstDiff(got, want))
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("%s: %s audit: %v", what, class, err)
		}
	}
}

// TestRecoveryTornTail crashes mid-append: the WAL's last record is torn
// (truncated), corrupted (CRC flip), or cut to a frame header whose length
// claims a gigabyte. Recovery must succeed with the valid prefix, truncate
// the log to it, and serve the history without the lost batch, and the
// truncated log must take that batch again.
func TestRecoveryTornTail(t *testing.T) {
	for _, mode := range []string{"torn", "crc", "claim"} {
		t.Run(mode, func(t *testing.T) {
			g := oracle.Graph()
			build, _ := oracle.Engines(g)
			h := history.New(g, 777)
			dir := t.TempDir()
			d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			attachInPlace(d, build)
			var kept *incgraph.Graph
			var lost incgraph.Batch
			var clean int64 // the WAL's size before the lost batch
			for i := 0; i < 6; i++ {
				kept, lost, clean = h.Sim.Clone(), h.Batch(60), d.WALBytes()
				if _, err := d.Commit(lost, incgraph.ApplyOptions{}); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			d.Close()

			// Damage the tail of the WAL so the final record is lost.
			walPath := filepath.Join(dir, "wal-00000001.log")
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "torn":
				data = data[:len(data)-7] // cut inside the last record
			case "crc":
				data[len(data)-1] ^= 0xFF // corrupt the last payload byte
			case "claim":
				data = binary.LittleEndian.AppendUint32(data[:clean], 1<<30)
				data = append(data, 0, 0, 0, 0) // the frame's CRC
			}
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
			if err != nil {
				t.Fatalf("OpenDurable after %s tail: %v", mode, err)
			}
			defer r.Close()
			if r.WALBytes() != clean {
				t.Fatalf("recovery left a %d-byte WAL, want it truncated to %d", r.WALBytes(), clean)
			}
			engines := attachInPlace(r, build)
			matchesOracle(t, "torn-tail recovery", r, engines, build, kept)
			if _, err := r.Commit(lost, incgraph.ApplyOptions{}); err != nil {
				t.Fatalf("re-apply after truncation: %v", err)
			}
			matchesOracle(t, "post-truncation apply", r, engines, build, h.Sim)
		})
	}
}

// TestRecoveryBuildsOnce reopens a store over a checkpoint and a WAL tail.
// The tail is applied to the graph alone, so the graph, its generation and
// the WAL sequence come back as logged, and each engine built on the
// recovered graph meters exactly what the same build on a copy of it does:
// recovery repairs nothing.
func TestRecoveryBuildsOnce(t *testing.T) {
	g := oracle.Graph()
	build, _ := oracle.Engines(g)
	h := history.New(g, 2024)
	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	attachInPlace(d, build)
	for i := 0; i < 8; i++ {
		if _, err := d.Commit(h.Batch(40), incgraph.ApplyOptions{}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 3 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	gen, seq := d.Generation(), d.WALSeq()
	d.Close()

	r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Generation() != gen || r.WALSeq() != seq || seq != 4 {
		t.Fatalf("recovered at generation %d, WAL seq %d; logged %d, %d over a 4-record tail", r.Generation(), r.WALSeq(), gen, seq)
	}
	engines := attachInPlace(r, build)
	matchesOracle(t, "recovered", r, engines, build, h.Sim)
	for _, class := range build.Classes() {
		if got, want := engines[class].Meter.Total(), build[class](r.Graph().Clone()).Meter.Total(); got != want {
			t.Errorf("%s metered %d on recovery, one build on the recovered graph %d", class, got, want)
		}
	}
}

// TestRecoveryRefusesUnappliableRecord: a CRC-valid WAL record that does
// not apply to the graph the records before it left — here, the deletion
// of an edge the graph does not hold — fails OpenDurable, naming the
// record, rather than serving a graph that is not the logged history.
func TestRecoveryRefusesUnappliableRecord(t *testing.T) {
	g := oracle.Graph()
	h := history.New(g, 11)
	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commit(h.Batch(20), incgraph.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	gen := d.Generation()
	d.Close()
	w, _, err := store.OpenWAL(nil, filepath.Join(dir, "wal-00000001.log"), store.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(incgraph.Batch{incgraph.Del(-5, -6)}, gen); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{}); err == nil || !strings.Contains(err.Error(), "recovery replay of WAL record 2") {
		t.Fatalf("OpenDurable over a record that does not apply: %v, want a refusal naming record 2", err)
	}
}

// maintainedOnly shows an engine's Maintained methods and nothing else: the
// shape of a caller's wrapper, which hides the in-place repair entry.
type maintainedOnly struct{ incgraph.Maintained }

// TestDurableGuards pins what Attach decides and the misuse errors: an
// adapter on the base graph attaches and shares it; a wrapper on the base
// graph, and a second engine on one private graph, are refused at attach
// time — each would otherwise fail on the first commit, after the WAL
// append — and a rejected batch never reaches the WAL. A store OpenDurable
// returns is already recovered: its graph is the committed history, and
// it takes a commit straight away. It is the one test that attaches an
// engine on a clone on purpose.
func TestDurableGuards(t *testing.T) {
	g := oracle.Graph()
	build, _ := oracle.Engines(g)
	h := history.New(g, 99)
	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inPlace := build["kws"](d.Graph()).M
	err = d.Attach(maintainedOnly{inPlace})
	if err == nil || !strings.Contains(err.Error(), "Graph().Clone()") || !strings.Contains(err.Error(), "Maintain* adapter") {
		t.Fatalf("attaching a wrapper on the base graph: %v, want a refusal naming both remedies", err)
	}
	if err := d.Attach(inPlace); err != nil {
		t.Fatalf("attaching an adapter on the base graph: %v", err)
	}
	if inPlace.Graph() != d.Graph() {
		t.Fatal("the attached engine does not share the base graph")
	}
	clone := d.Graph().Clone()
	if err := d.Attach(maintainedOnly{build["rpq"](clone).M}); err != nil {
		t.Fatalf("attaching a wrapped engine on a clone: %v", err)
	}
	err = d.Attach(build["scc"](clone).M)
	if err == nil || !strings.Contains(err.Error(), "scc") || !strings.Contains(err.Error(), "rpq") {
		t.Fatalf("attaching a second engine on one clone: %v, want a refusal naming both classes", err)
	}
	if n := len(d.Engines()); n != 2 {
		t.Fatalf("%d engines attached, want the 2 accepted", n)
	}
	b := h.Batch(60)
	if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	// Validation failures must not reach the WAL: re-applying the same
	// batch is invalid, and recovery must replay only the good record.
	if _, err := d.Commit(b, incgraph.ApplyOptions{}); err == nil {
		t.Fatal("want validation error for duplicate batch")
	}
	d.Close()

	r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Graph().Equal(h.Sim) {
		t.Fatal("the opened store's graph is not the committed history")
	}
	if _, err := r.Commit(h.Batch(60), incgraph.ApplyOptions{}); err != nil {
		t.Fatalf("commit straight after OpenDurable: %v", err)
	}
	if !r.Graph().Equal(h.Sim) {
		t.Fatal("after a commit, the opened store's graph is not the committed history")
	}
}

// TestDurableFsyncFailThenCrashParity injects an fsync failure on the
// k-th WAL sync for several k and commits a stream of batches: the faulted
// commit is refused, leaving the store where it was, and committed again.
// Then the process "crashes" — the handle is abandoned without Close — and
// the directory recovers on the clean filesystem to exactly the
// acknowledged history: a refused record left behind would replay twice.
func TestDurableFsyncFailThenCrashParity(t *testing.T) {
	// Sync #0 is the WAL-create header fsync, so k >= 1 targets an append.
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("sync-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			g := oracle.Graph()
			build, _ := oracle.Engines(g)
			h := history.New(g, 17)
			ffs := store.NewFaultFS(21, store.FSRule{
				Op: "sync", Path: "wal", Index: k, Kind: store.FaultSyncFail,
			})
			d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			attachInPlace(d, build)
			refused := 0
			for i := 0; i < 6; i++ {
				b := h.Batch(25)
				gen, seq := d.Generation(), d.WALSeq()
				if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
					refused++
					if d.Generation() != gen || d.WALSeq() != seq {
						t.Fatalf("batch %d: the refused commit moved the store: generation %d → %d, WAL seq %d → %d",
							i, gen, d.Generation(), seq, d.WALSeq())
					}
					if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
						t.Fatalf("batch %d, committed again: %v", i, err)
					}
				}
			}
			if refused != 1 {
				t.Fatalf("%d commits refused, want exactly one", refused)
			}
			// Crash: no Close, no final sync. The faulted append was rolled
			// back at refusal time, so the on-disk WAL is already clean.

			r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer r.Close()
			engines := attachInPlace(r, build)
			matchesOracle(t, "recovered", r, engines, build, h.Sim)
		})
	}
}

// TestClusterCommitWALFailureAfterPhase1: a cluster commit whose WAL append
// fails after phase 1 — ENOSPC part-way through the record — returns the
// error and leaves WALSeq, the graph and every engine as they were. The
// workers did apply the batch, so the coordinator stops: the next commit
// through it fails with the first failure and logs nothing. The store goes
// on locally, and recovers to exactly what a single-process run of the same
// stream holds: WAL bytes, graph and answers.
func TestClusterCommitWALFailureAfterPhase1(t *testing.T) {
	g := oracle.Graph()
	g.SetShards(8)
	build, _ := oracle.Engines(g)
	h := history.New(g, 5151)
	batches := make([]incgraph.Batch, 6)
	for i := range batches {
		batches[i] = h.Batch(60)
	}
	dir := t.TempDir()
	open := func(name string, fs incgraph.FS) (*incgraph.Durable, map[string]oracle.Engine) {
		d, err := incgraph.CreateDurable(filepath.Join(dir, name), g.Clone(), incgraph.DurableOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		return d, attachInPlace(d, build)
	}

	// WAL write #0 is the header, so #3 is the third batch's record.
	d, engines := open("cluster", store.NewFaultFS(5, store.FSRule{
		Op: "write", Path: "wal", Index: 3, Kind: store.FaultENOSPC, Keep: 7,
	}))
	links, _, stop := incgraph.InProcessLinks(2)
	defer stop()
	cl, err := incgraph.NewCluster(d.Graph(), links)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	via := incgraph.ApplyOptions{Via: cl}
	for i := 0; i < 2; i++ {
		if _, err := d.Commit(batches[i], via); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	seq, graph := d.WALSeq(), d.Graph().Clone()
	before := map[string]string{}
	for class, e := range engines {
		before[class] = e.Observe()
	}
	if _, err := d.Commit(batches[2], via); err == nil || !strings.Contains(err.Error(), "WAL append") {
		t.Fatalf("commit over a full disk: %v, want the WAL append's error", err)
	}
	if d.WALSeq() != seq || !d.Graph().Equal(graph) {
		t.Fatalf("the failed commit moved the store: WAL seq %d → %d, graph changed %v", seq, d.WALSeq(), !d.Graph().Equal(graph))
	}
	for class, e := range engines {
		if got := e.Observe(); got != before[class] {
			t.Fatalf("the failed commit moved %s: %s", class, oracle.FirstDiff(got, before[class]))
		}
	}

	wal := d.WALBytes()
	if _, err := d.Commit(batches[2], via); err == nil || !strings.Contains(err.Error(), "WAL append") {
		t.Fatalf("commit through the stopped coordinator: %v, want the first failure", err)
	}
	if d.WALSeq() != seq || d.WALBytes() != wal || !d.Graph().Equal(graph) {
		t.Fatal("a commit through the stopped coordinator moved the store")
	}

	for i := 2; i < len(batches); i++ {
		if _, err := d.Commit(batches[i], incgraph.ApplyOptions{}); err != nil {
			t.Fatalf("local batch %d after the failure: %v", i, err)
		}
	}
	d.Close()

	single, _ := open("single", nil)
	for i, b := range batches {
		if _, err := single.Commit(b, incgraph.ApplyOptions{}); err != nil {
			t.Fatalf("single-process batch %d: %v", i, err)
		}
	}
	single.Close()
	walOf := func(name string) []byte {
		wals, err := filepath.Glob(filepath.Join(dir, name, "wal-*.log"))
		if err != nil || len(wals) != 1 {
			t.Fatalf("%s: want one WAL file, got %v (%v)", name, wals, err)
		}
		b, err := os.ReadFile(wals[0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(walOf("cluster"), walOf("single")) {
		t.Fatal("the cluster's WAL differs from the single-process one")
	}
	for _, name := range []string{"cluster", "single"} {
		r, err := incgraph.OpenDurable(filepath.Join(dir, name), incgraph.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		engines := attachInPlace(r, build)
		matchesOracle(t, "recovered "+name, r, engines, build, h.Sim)
	}
}

// TestClusterOnRecoveredStore: NewCluster on a store OpenDurable just
// returned places the recovered graph — the snapshot with the WAL's tail
// applied — so a commit through it succeeds and every replica verifies
// clean.
func TestClusterOnRecoveredStore(t *testing.T) {
	g := oracle.Graph()
	g.SetShards(8)
	build, _ := oracle.Engines(g)
	h := history.New(g, 4343)
	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, g.Clone(), incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Commit(h.Batch(60), incgraph.ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{Sync: incgraph.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	engines := attachInPlace(r, build)
	links, _, stop := incgraph.InProcessLinks(2)
	defer stop()
	cl, err := incgraph.NewCluster(r.Graph(), links)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.VerifyAll(); err != nil {
		t.Fatalf("replicas placed from the recovered store: %v", err)
	}
	if _, err := r.Commit(h.Batch(60), incgraph.ApplyOptions{Via: cl}); err != nil {
		t.Fatalf("Commit via a cluster on the recovered store: %v", err)
	}
	if err := cl.VerifyAll(); err != nil {
		t.Fatalf("replicas after the commit: %v", err)
	}
	matchesOracle(t, "after the commit", r, engines, build, h.Sim)
}
