package incgraph_test

// Differential test of the parallel engine: the same random update stream
// drives a workers=1 engine and a workers=8 engine for every query class,
// and after every batch the rendered (sorted) deltas and the final answers
// must be byte-identical. This pins the determinism contract — per-worker
// repair results merge into exactly the sequential output — under the
// scheduler's full nondeterminism. Run with -race for the memory-model
// half of the guarantee. The inputs are so small that a loop is over
// before its helpers arrive, so the test forces them in first
// (graph.EagerFanOut): without it both sides would run nearly every loop
// on one goroutine and the pin would hold trivially.

import (
	"fmt"
	"sort"
	"testing"

	"incgraph"
	"incgraph/internal/graph"
)

// diffWorkload builds one synthetic workload graph and a stream of update
// batches valid against it in sequence.
func diffWorkload(t *testing.T, seed int64) (*incgraph.Graph, []incgraph.Batch) {
	t.Helper()
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes:        1200,
		Edges:        6000,
		Labels:       8,
		GiantSCCFrac: 0.5,
		Seed:         seed,
	})
	// Pre-generate the stream against a scratch copy so every batch is
	// valid for any engine replaying the same sequence.
	scratch := g.Clone()
	batches := make([]incgraph.Batch, 6)
	for i := range batches {
		b := incgraph.RandomUpdates(scratch, incgraph.UpdateSpec{
			Count:       60,
			InsertRatio: 0.5,
			Locality:    0.8,
			Seed:        seed + int64(100+i),
		})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatalf("stream batch %d invalid: %v", i, err)
		}
		batches[i] = b
	}
	return g, batches
}

// classRun is one engine instance under test: apply a batch and render the
// sorted delta, or render the full current answer.
type classRun struct {
	apply  func(b incgraph.Batch) (string, error)
	answer func() string
}

func TestParallelMatchesSequential(t *testing.T) {
	defer graph.EagerFanOut()()
	g, batches := diffWorkload(t, 42)

	kwsQ, err := incgraph.RandomKWSQuery(g, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rpqQ, err := incgraph.RandomRPQQuery(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	isoQ, err := incgraph.RandomISOPattern(g, 3, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}

	mkKWS := func(g *incgraph.Graph) (classRun, error) {
		ix, err := incgraph.NewKWS(g, kwsQ)
		if err != nil {
			return classRun{}, err
		}
		return classRun{
			apply: func(b incgraph.Batch) (string, error) {
				d, err := ix.Apply(b)
				return fmt.Sprintf("%+v", d), err
			},
			answer: func() string {
				var sb []string
				for _, r := range ix.MatchRoots() {
					m, _ := ix.MatchAt(r)
					sb = append(sb, fmt.Sprintf("%d:%v", r, m.Dists))
				}
				return fmt.Sprint(sb)
			},
		}, nil
	}
	mkRPQ := func(g *incgraph.Graph) (classRun, error) {
		e, err := incgraph.NewRPQFromAst(g, rpqQ)
		if err != nil {
			return classRun{}, err
		}
		return classRun{
			apply: func(b incgraph.Batch) (string, error) {
				d, err := e.Apply(b)
				return fmt.Sprintf("%+v", d), err
			},
			answer: func() string { return fmt.Sprint(e.Matches()) },
		}, nil
	}
	mkISO := func(g *incgraph.Graph) (classRun, error) {
		ix := incgraph.NewISO(g, isoQ)
		return classRun{
			apply: func(b incgraph.Batch) (string, error) {
				d, err := ix.Apply(b)
				return fmt.Sprintf("%+v", d), err
			},
			answer: func() string { return fmt.Sprint(ix.Matches()) },
		}, nil
	}
	mkSCC := func(g *incgraph.Graph) (classRun, error) {
		s := incgraph.NewSCC(g)
		canon := func(cs [][]incgraph.NodeID) [][]incgraph.NodeID {
			out := append([][]incgraph.NodeID(nil), cs...)
			sort.Slice(out, func(i, j int) bool {
				return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
			})
			return out
		}
		return classRun{
			apply: func(b incgraph.Batch) (string, error) {
				d, err := s.Apply(b)
				if err != nil {
					return "", err
				}
				// SCC deltas are component lists in unspecified order:
				// canonicalize before comparing.
				return fmt.Sprintf("+%v -%v", canon(d.Added), canon(d.Removed)), nil
			},
			answer: func() string { return fmt.Sprint(s.ComponentsSorted()) },
		}, nil
	}

	classes := []struct {
		name string
		mk   func(g *incgraph.Graph) (classRun, error)
	}{
		{"kws", mkKWS},
		{"rpq", mkRPQ},
		{"iso", mkISO},
		{"scc", mkSCC},
	}

	for _, c := range classes {
		c := c
		t.Run(c.name, func(t *testing.T) {
			gs, gp := g.Clone(), g.Clone()
			gs.SetParallelism(1)
			gp.SetParallelism(8)
			seq, err := c.mk(gs)
			if err != nil {
				t.Fatalf("sequential build: %v", err)
			}
			par, err := c.mk(gp)
			if err != nil {
				t.Fatalf("parallel build: %v", err)
			}
			if a, b := seq.answer(), par.answer(); a != b {
				t.Fatalf("initial answers differ:\nworkers=1: %s\nworkers=8: %s", a, b)
			}
			for i, b := range batches {
				ds, err := seq.apply(b)
				if err != nil {
					t.Fatalf("batch %d sequential: %v", i, err)
				}
				dp, err := par.apply(b)
				if err != nil {
					t.Fatalf("batch %d parallel: %v", i, err)
				}
				if ds != dp {
					t.Fatalf("batch %d deltas differ:\nworkers=1: %s\nworkers=8: %s", i, ds, dp)
				}
				if a, bb := seq.answer(), par.answer(); a != bb {
					t.Fatalf("batch %d answers differ:\nworkers=1: %s\nworkers=8: %s", i, a, bb)
				}
			}
		})
	}
}
