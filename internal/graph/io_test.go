package graph_test

import (
	"bytes"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// FuzzReadGraph reads arbitrary bytes as the text format — the reader
// behind LoadGraphFile and incgraphd's -graph: it never panics, and a
// graph it accepts writes, reads back Equal and writes the same bytes
// again. The seeds are Write's output for a few small generated graphs,
// each also cut after every line, and one graph with sparse IDs and a
// label of several words.
func FuzzReadGraph(f *testing.F) {
	for _, spec := range []gen.GraphSpec{
		{Nodes: 6, Edges: 10, Labels: 3, Seed: 1},
		{Nodes: 12, Edges: 30, Labels: 4, ZipfLabels: true, GiantSCCFrac: 0.5, Seed: 2},
		{Nodes: 10, Edges: 20, Labels: 2, AcyclicBias: 0.8, Seed: 3},
	} {
		var buf bytes.Buffer
		if err := graph.Write(&buf, gen.Synthetic(spec)); err != nil {
			f.Fatal(err)
		}
		text := buf.Bytes()
		for i, c := range text {
			if c == '\n' {
				f.Add(text[:i+1])
			}
		}
	}
	f.Add([]byte("# sparse\nn -7 two words\nn 1099511627776 x\nn 0 \ne -7 1099511627776\ne 0 0\n"))
	f.Fuzz(func(t *testing.T, text []byte) {
		g, err := graph.Read(bytes.NewReader(text))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := graph.Write(&once, g); err != nil {
			t.Fatalf("an accepted graph does not write: %v", err)
		}
		h, err := graph.Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("an accepted graph's text does not read back: %v", err)
		}
		if !h.Equal(g) || !g.Equal(h) {
			t.Fatal("an accepted graph changed through Write → Read")
		}
		if err := graph.Write(&twice, h); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("the read-back graph writes different text (%v)", err)
		}
	})
}
