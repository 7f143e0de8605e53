package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"incgraph"
)

// ringServer builds a server over a directed ring of ring nodes beside
// loose isolated ones, with scc standing: one component of ring members and
// loose singletons, and cutting one ring edge turns the ring into ring
// singletons — |Q(G)| and |ΔO| chosen by the caller.
func ringServer(t *testing.T, ring, loose int) *server {
	t.Helper()
	g := incgraph.NewGraph()
	for v := 0; v < ring+loose; v++ {
		g.AddNode(incgraph.NodeID(v), "a")
	}
	for v := 0; v < ring; v++ {
		g.AddEdge(incgraph.NodeID(v), incgraph.NodeID((v+1)%ring))
	}
	return newTestServer(t, g, incgraph.DurableOptions{Sync: incgraph.SyncNone}, limits{})
}

// TestPublishAllocsIndependentOfSizes pins what a commit pays for the read
// side: publishing allocates the view, its class table and one ΔO value per
// class, whether ΔO is 3 rows over an answer of 101 or 1001 rows over an
// answer of 39001. (Folds are not on this path at all; the sizes keep both
// chains below the threshold so that none starts, and the chain's array does
// not grow inside the measured runs.)
func TestPublishAllocsIndependentOfSizes(t *testing.T) {
	measure := func(ring, loose int) float64 {
		srv := ringServer(t, ring, loose)
		if _, err := srv.d.Commit(incgraph.Batch{incgraph.Del(0, 1)}, incgraph.ApplyOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := srv.rows[0].LastDelta().Len(); n != ring+1 {
			t.Fatalf("ΔO has %d rows, want %d", n, ring+1)
		}
		// The same ΔO again and again: the views are nonsense, the cost of
		// making them is not. Four publishes fill a chain array of four; the
		// unmeasured first run grows it to eight, the three measured ones
		// append in place.
		for i := 0; i < 4; i++ {
			srv.publish(true, nil)
		}
		allocs := testing.AllocsPerRun(3, func() { srv.publish(true, nil) })
		if v := srv.view.Load(); len(v.classes[0].chain) != 8 || srv.viewFolds.Load() != 0 {
			t.Fatalf("chain of %d deltas after %d folds, want 8 after none", len(v.classes[0].chain), srv.viewFolds.Load())
		}
		return allocs
	}
	small, large := measure(2, 100), measure(1000, 39000)
	t.Logf("allocs per publish: %.0f, %.0f", small, large)
	if small != large || small > 4 {
		t.Fatalf("publish allocates %.0f times with ΔO of 3 rows, %.0f with 1001: want the same, at most 4", small, large)
	}
}

// statInt returns the integer field name=N of a stat or health reply.
func statInt(t *testing.T, reply, name string) int {
	t.Helper()
	for _, f := range strings.Fields(reply) {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			return n
		}
	}
	t.Fatalf("%q has no %s=", reply, name)
	return 0
}

// TestChainFoldsWithoutReaders commits a ring open and shut many times over
// one connection that never reads an answer: once its fold is done the chain
// must be within its bound after every commit, folds must have happened, and
// the answer served at the end must be the engine's.
func TestChainFoldsWithoutReaders(t *testing.T) {
	const ring, loose = 50, 150
	srv := ringServer(t, ring, loose)
	c, _ := pipeClient(t, srv)
	statField := func(name string) int { return statInt(t, c.cmd(t, "stat"), name) }
	for i := 0; i < 40; i++ {
		op := "-"
		if i%2 == 1 {
			op = "+"
		}
		c.cmd(t, fmt.Sprintf("%s 0 1", op))
		c.cmd(t, "commit")
		// The commit that takes a chain past the threshold starts its fold,
		// and no base has more than ring+loose rows.
		waitFor(t, "the fold to finish", func() bool { return !srv.folding[0].Load() })
		if rows, limit := statField("view_delta_rows"), foldMin+(ring+loose)/foldFrac; rows > limit {
			t.Fatalf("commit %d: %d rows wait in the chain, want at most %d", i, rows, limit)
		}
	}
	if statField("view_folds") == 0 {
		t.Fatal("no chain was ever folded")
	}
	if gen, vgen := statField("gen"), statField("view_gen"); gen != vgen || gen != int(srv.d.Generation()) {
		t.Fatalf("stat gen=%d view_gen=%d, the graph is at %d", gen, vgen, srv.d.Generation())
	}
	var want bytes.Buffer
	if err := srv.d.Engines()[0].WriteAnswer(&want); err != nil {
		t.Fatal(err)
	}
	if got := c.answer(t, "scc"); got != want.String() {
		t.Fatalf("answer after %d folds:\n%s\nengine:\n%s", statField("view_folds"), got, want.String())
	}
}
