package incgraph_test

// Differential test of the durability subsystem: recovery parity. For
// every query class, at shards=1 and shards=8, the answers served after a
// crash — snapshot load plus WAL replay through the engines' normal Apply
// path — must be byte-identical (Maintained.WriteAnswer) to the answers of
// the uninterrupted in-memory run, and the recovered graph must equal the
// live one. A torn or corrupt WAL tail must truncate, not fail recovery.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incgraph"
)

// durableQueries fixes one query per class for a workload graph.
type durableQueries struct {
	kws incgraph.KWSQuery
	rpq *incgraph.Regexp
	iso *incgraph.Pattern
}

func mkDurableQueries(t *testing.T, g *incgraph.Graph, seed int64) durableQueries {
	t.Helper()
	kwsQ, err := incgraph.RandomKWSQuery(g, 3, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	rpqQ, err := incgraph.RandomRPQQuery(g, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	isoQ, err := incgraph.RandomISOPattern(g, 3, 3, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return durableQueries{kws: kwsQ, rpq: rpqQ, iso: isoQ}
}

// mkEngines builds all four maintained engines, each on its own clone of g.
func mkEngines(t *testing.T, g *incgraph.Graph, q durableQueries) []incgraph.Maintained {
	t.Helper()
	kws, err := incgraph.NewKWS(g.Clone(), q.kws)
	if err != nil {
		t.Fatal(err)
	}
	rpq, err := incgraph.NewRPQFromAst(g.Clone(), q.rpq)
	if err != nil {
		t.Fatal(err)
	}
	return []incgraph.Maintained{
		incgraph.MaintainKWS(kws),
		incgraph.MaintainRPQ(rpq),
		incgraph.MaintainSCC(incgraph.NewSCC(g.Clone())),
		incgraph.MaintainISO(incgraph.NewISO(g.Clone(), q.iso)),
	}
}

// answers renders every engine's canonical answer bytes, keyed by class.
func answers(t *testing.T, engines []incgraph.Maintained) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(engines))
	for _, m := range engines {
		var buf bytes.Buffer
		if err := m.WriteAnswer(&buf); err != nil {
			t.Fatalf("%s: WriteAnswer: %v", m.Class(), err)
		}
		out[m.Class()] = buf.Bytes()
	}
	return out
}

func compareAnswers(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for class, w := range want {
		g, ok := got[class]
		if !ok {
			t.Fatalf("%s: class %s missing", label, class)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: %s answers not byte-identical\nwant (%d bytes):\n%s\ngot (%d bytes):\n%s",
				label, class, len(w), w, len(g), g)
		}
	}
}

func TestRecoveryParity(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for _, checkpointMid := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/checkpoint=%v", shards, checkpointMid)
			t.Run(name, func(t *testing.T) {
				base, batches := diffWorkload(t, 4242)
				q := mkDurableQueries(t, base, 23)
				tune := func(g *incgraph.Graph) *incgraph.Graph {
					g.SetShards(shards)
					g.SetParallelism(4)
					return g
				}

				// Uninterrupted in-memory run.
				live := mkEngines(t, tune(base.Clone()), q)
				for i, b := range batches {
					for _, m := range live {
						if _, err := m.Apply(b); err != nil {
							t.Fatalf("live batch %d %s: %v", i, m.Class(), err)
						}
					}
				}
				want := answers(t, live)

				// Durable run with the same stream, then a simulated crash:
				// the process state is dropped, only dir survives.
				dir := t.TempDir()
				d, err := incgraph.CreateDurable(dir, tune(base.Clone()), incgraph.DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Attach(mkEngines(t, d.Graph(), q)...); err != nil {
					t.Fatal(err)
				}
				for i, b := range batches {
					if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
						t.Fatalf("durable batch %d: %v", i, err)
					}
					if checkpointMid && i == len(batches)/2 {
						if err := d.Checkpoint(); err != nil {
							t.Fatalf("mid-stream checkpoint: %v", err)
						}
					}
				}
				compareAnswers(t, "pre-crash", want, answers(t, d.Engines()))
				liveGraph := d.Graph()
				d.Close()

				// Recovery: snapshot load + WAL replay through Apply.
				r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
				if err != nil {
					t.Fatalf("OpenDurable: %v", err)
				}
				if err := r.Attach(mkEngines(t, r.Graph(), q)...); err != nil {
					t.Fatal(err)
				}
				if err := r.Recover(); err != nil {
					t.Fatalf("Recover: %v", err)
				}
				compareAnswers(t, "post-recovery", want, answers(t, r.Engines()))
				if !r.Graph().Equal(liveGraph) {
					t.Fatal("recovered graph differs from live graph")
				}
				for _, m := range r.Engines() {
					if !m.Graph().Equal(liveGraph) {
						t.Fatalf("recovered %s engine graph differs", m.Class())
					}
				}

				// The recovered instance keeps serving: one more batch stays
				// in lockstep with the live engines.
				extra := incgraph.RandomUpdates(r.Graph(), incgraph.UpdateSpec{
					Count: 40, InsertRatio: 0.5, Locality: 0.8, Seed: 999,
				})
				if _, err := r.Commit(extra, incgraph.ApplyOptions{}); err != nil {
					t.Fatalf("post-recovery apply: %v", err)
				}
				for _, m := range live {
					if _, err := m.Apply(extra); err != nil {
						t.Fatalf("live extra %s: %v", m.Class(), err)
					}
				}
				compareAnswers(t, "post-recovery apply", answers(t, live), answers(t, r.Engines()))
			})
		}
	}
}

// TestRecoveryTornTail crashes mid-append: the WAL's last record is torn
// (truncated) or corrupted (CRC flip). Recovery must succeed with the
// valid prefix and serve answers identical to a run that never saw the
// lost batch.
func TestRecoveryTornTail(t *testing.T) {
	for _, mode := range []string{"torn", "crc"} {
		t.Run(mode, func(t *testing.T) {
			base, batches := diffWorkload(t, 777)
			q := mkDurableQueries(t, base, 31)

			dir := t.TempDir()
			d, err := incgraph.CreateDurable(dir, base.Clone(), incgraph.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Attach(mkEngines(t, d.Graph(), q)...); err != nil {
				t.Fatal(err)
			}
			for i, b := range batches {
				if _, err := d.Commit(b, incgraph.ApplyOptions{}); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			d.Close()

			// Reference: a run that saw every batch except the last.
			ref := mkEngines(t, base.Clone(), q)
			for _, b := range batches[:len(batches)-1] {
				for _, m := range ref {
					if _, err := m.Apply(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := answers(t, ref)

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
			}
			if err := os.WriteFile(walPath, data, 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
			if err != nil {
				t.Fatalf("OpenDurable after %s tail: %v", mode, err)
			}
			if err := r.Attach(mkEngines(t, r.Graph(), q)...); err != nil {
				t.Fatal(err)
			}
			if err := r.Recover(); err != nil {
				t.Fatalf("Recover after %s tail: %v", mode, err)
			}
			compareAnswers(t, "torn-tail recovery", want, answers(t, r.Engines()))

			// The truncated log accepts new appends cleanly.
			redo := batches[len(batches)-1]
			if _, err := r.Commit(redo, incgraph.ApplyOptions{}); err != nil {
				t.Fatalf("re-apply after truncation: %v", err)
			}
			for _, m := range ref {
				if _, err := m.Apply(redo); err != nil {
					t.Fatal(err)
				}
			}
			compareAnswers(t, "post-truncation apply", answers(t, ref), answers(t, r.Engines()))
		})
	}
}

// maintainedOnly shows an engine's Maintained methods and nothing else: the
// shape of a caller's wrapper, which hides the in-place repair entry.
type maintainedOnly struct{ incgraph.Maintained }

// TestDurableGuards pins what Attach decides and the misuse errors: an
// adapter on the base graph attaches and shares it; a wrapper on the base
// graph, and a second engine on one private graph, are refused at attach
// time — each would otherwise fail on the first commit, after the WAL
// append — and applying before recovery completed is refused.
func TestDurableGuards(t *testing.T) {
	base, batches := diffWorkload(t, 99)
	q := mkDurableQueries(t, base, 7)
	dir := t.TempDir()
	d, err := incgraph.CreateDurable(dir, base.Clone(), incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kws, err := incgraph.NewKWS(d.Graph(), q.kws)
	if err != nil {
		t.Fatal(err)
	}
	inPlace := incgraph.MaintainKWS(kws)
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
	rpq, err := incgraph.NewRPQFromAst(clone, q.rpq)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(maintainedOnly{incgraph.MaintainRPQ(rpq)}); err != nil {
		t.Fatalf("attaching a wrapped engine on a clone: %v", err)
	}
	err = d.Attach(incgraph.MaintainSCC(incgraph.NewSCC(clone)))
	if err == nil || !strings.Contains(err.Error(), "scc") || !strings.Contains(err.Error(), "rpq") {
		t.Fatalf("attaching a second engine on one clone: %v, want a refusal naming both classes", err)
	}
	if n := len(d.Engines()); n != 2 {
		t.Fatalf("%d engines attached, want the 2 accepted", n)
	}
	if _, err := d.Commit(batches[0], incgraph.ApplyOptions{}); err != nil {
		t.Fatal(err)
	}
	// Validation failures must not reach the WAL: re-applying the same
	// batch is invalid, and recovery must replay only the good record.
	if _, err := d.Commit(batches[0], incgraph.ApplyOptions{}); err == nil {
		t.Fatal("want validation error for duplicate batch")
	}
	d.Close()

	r, err := incgraph.OpenDurable(dir, incgraph.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(batches[1], incgraph.ApplyOptions{}); err == nil {
		t.Fatal("want error applying before Recover")
	}
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(batches[1], incgraph.ApplyOptions{}); err != nil {
		t.Fatalf("apply after Recover: %v", err)
	}
	r.Close()
}
