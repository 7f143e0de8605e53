// Package history is the one seeded update history every differential
// test of incgraph drives, and the from-scratch oracle it is judged by: the
// root package's TestHistory runs it through every deployment shape of the
// library, and cmd/incgraphd's TestDaemonHistory through the daemon over
// the wire. It exists so that both are held to Q(G) rebuilt from scratch,
// not to one another. Only test files import it.
package history

import (
	"math/rand"
	"slices"

	"incgraph"
)

// Graph returns the graph every history starts from: two labels, half the
// nodes in one giant SCC.
func Graph() *incgraph.Graph {
	return incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1200, Labels: 2, GiantSCCFrac: 0.5, Seed: 41,
	})
}

// Sizes is one round of the history's batches: 1 to 1536, the large ones
// taking kws' and iso's rebuild-and-diff path.
var Sizes = []int{1, 4, 32, 1536, 32, 4, 1, 32}

// FuzzCorpus is Sizes as the fuzz targets' input (see FuzzSizes), capped at
// 64 updates a batch; with seed 200 it is their corpus.
var FuzzCorpus = []byte{0, 3, 31, 63, 31, 3, 0, 31}

// FuzzSizes decodes a fuzz target's input into batch sizes: one batch of
// 1 + b%64 updates per byte b, at most 16 batches.
func FuzzSizes(b []byte) []int {
	ks := make([]int, min(len(b), 16))
	for i := range ks {
		ks[i] = 1 + int(b[i])%64
	}
	return ks
}

// History generates batches that are valid against Sim in order and
// applies them to Sim: deletions, insertions between existing nodes,
// insertions that hang a new node off an existing one — IDs below the
// range (negative), just above it and from 2⁴⁰ up, labeled from the graph's
// alphabet — and pairs that cancel within the batch: an edge inserted and
// deleted again (its new node stays), an edge deleted and put back.
type History struct {
	// Sim is the graph as the batches so far left it.
	Sim          *incgraph.Graph
	rng          *rand.Rand
	nodes        []incgraph.NodeID
	labels       []string
	lo, hi, huge incgraph.NodeID
	fresh        int
}

// New starts a history from g, which it does not modify.
func New(g *incgraph.Graph, seed int64) *History {
	sim := g.Clone()
	nodes := sim.NodesSorted()
	h := &History{
		Sim: sim, rng: rand.New(rand.NewSource(seed)), nodes: nodes,
		lo: min(nodes[0], 0) - 1, hi: nodes[len(nodes)-1] + 1, huge: 1 << 40,
	}
	sim.Labels(func(l string, _ int) bool {
		h.labels = append(h.labels, l)
		return true
	})
	slices.Sort(h.labels)
	return h
}

func (h *History) freshNode() (incgraph.NodeID, string) {
	var id incgraph.NodeID
	switch h.fresh % 3 {
	case 0:
		id = h.lo
		h.lo--
	case 1:
		id = h.hi
		h.hi++
	default:
		id = h.huge
		h.huge += 1 << 20
	}
	h.fresh++
	h.nodes = append(h.nodes, id)
	return id, h.labels[h.rng.Intn(len(h.labels))]
}

// Batch returns the history's next batch, of at least k updates, and
// applies it to Sim.
func (h *History) Batch(k int) incgraph.Batch {
	var b incgraph.Batch
	for len(b) < k {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		var us []incgraph.Update
		switch h.rng.Intn(12) {
		case 0, 1, 2, 3:
			succ := h.Sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			us = append(us, incgraph.Del(v, succ[h.rng.Intn(len(succ))]))
		case 4:
			id, l := h.freshNode()
			if h.rng.Intn(2) == 0 {
				us = append(us, incgraph.InsNew(v, id, "", l))
			} else {
				us = append(us, incgraph.InsNew(id, v, l, ""))
			}
		case 5:
			if succ := h.Sim.SuccessorsSorted(v); len(succ) > 0 && h.rng.Intn(2) == 0 {
				w := succ[h.rng.Intn(len(succ))]
				us = append(us, incgraph.Del(v, w), incgraph.Ins(v, w))
			} else {
				id, l := h.freshNode()
				us = append(us, incgraph.InsNew(v, id, "", l), incgraph.Del(v, id))
			}
		default:
			w := h.nodes[h.rng.Intn(len(h.nodes))]
			if h.Sim.HasEdge(v, w) {
				continue
			}
			us = append(us, incgraph.Ins(v, w))
		}
		for _, u := range us {
			if err := h.Sim.Apply(u); err != nil {
				panic(err)
			}
		}
		b = append(b, us...)
	}
	return b
}

// BadBatch returns a batch that fails on its last update, after a prefix
// that would have created a node and deleted an edge. Sim stays as it was.
func (h *History) BadBatch() incgraph.Batch {
	for {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		if succ := h.Sim.SuccessorsSorted(v); len(succ) > 0 {
			return incgraph.Batch{
				incgraph.InsNew(v, h.huge+1, "", h.labels[0]),
				incgraph.Del(v, succ[0]),
				incgraph.Del(h.huge+1, h.huge+2),
			}
		}
	}
}
