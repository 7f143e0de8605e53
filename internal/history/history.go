// Package history is the one seeded update history every differential
// test of incgraph drives, and the one check every step of it is judged
// by: an engine's ΔO, folded onto Q(G) built from scratch before the step,
// must be Q(G) built from scratch after it (CheckStep). The root package's
// TestHistory runs it through every deployment shape of the library,
// cmd/incgraphd's TestDaemonHistory through the daemon over the wire, both
// against the from-scratch oracle of internal/history/oracle; the engine
// packages' TestRandomHistory (kws, rpq, scc, iso) run it through each
// engine's Apply and ApplyUnitwise. This half imports only internal/graph,
// so that the engine packages can import it; only test files and the
// oracle do.
package history

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"incgraph/internal/graph"
)

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

// RandomGraph returns a graph of n nodes, 0 to n-1, each labeled from
// labels, and m edges drawn from rng (a repeated one is kept once).
func RandomGraph(rng *rand.Rand, n, m int, labels ...string) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(graph.NodeID(i), labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return g
}

// History generates batches that are valid against Sim in order and
// applies them to Sim: deletions, insertions between existing nodes,
// insertions that hang a new node off an existing one — IDs below the
// range (negative), just above it and from 2⁴⁰ up, labeled from the graph's
// alphabet — and pairs that cancel within the batch: an edge inserted and
// deleted again (its new node stays), an edge deleted and put back.
type History struct {
	// Sim is the graph as the batches so far left it.
	Sim          *graph.Graph
	rng          *rand.Rand
	nodes        []graph.NodeID
	labels       []string
	lo, hi, huge graph.NodeID
	fresh        int
}

// New starts a history from g, which it does not modify.
func New(g *graph.Graph, seed int64) *History {
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

func (h *History) freshNode() (graph.NodeID, string) {
	var id graph.NodeID
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
func (h *History) Batch(k int) graph.Batch {
	var b graph.Batch
	for len(b) < k {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		var us []graph.Update
		switch h.rng.Intn(12) {
		case 0, 1, 2, 3:
			succ := h.Sim.SuccessorsSorted(v)
			if len(succ) == 0 {
				continue
			}
			us = append(us, graph.Del(v, succ[h.rng.Intn(len(succ))]))
		case 4:
			id, l := h.freshNode()
			if h.rng.Intn(2) == 0 {
				us = append(us, graph.InsNew(v, id, "", l))
			} else {
				us = append(us, graph.InsNew(id, v, l, ""))
			}
		case 5:
			if succ := h.Sim.SuccessorsSorted(v); len(succ) > 0 && h.rng.Intn(2) == 0 {
				w := succ[h.rng.Intn(len(succ))]
				us = append(us, graph.Del(v, w), graph.Ins(v, w))
			} else {
				id, l := h.freshNode()
				us = append(us, graph.InsNew(v, id, "", l), graph.Del(v, id))
			}
		default:
			w := h.nodes[h.rng.Intn(len(h.nodes))]
			if h.Sim.HasEdge(v, w) {
				continue
			}
			us = append(us, graph.Ins(v, w))
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
func (h *History) BadBatch() graph.Batch {
	for {
		v := h.nodes[h.rng.Intn(len(h.nodes))]
		if succ := h.Sim.SuccessorsSorted(v); len(succ) > 0 {
			return graph.Batch{
				graph.InsNew(v, h.huge+1, "", h.labels[0]),
				graph.Del(v, succ[0]),
				graph.Del(h.huge+1, h.huge+2),
			}
		}
	}
}

// CheckStep judges one step of an engine whose rows are in ord's order
// against Q(G) built from scratch before the step (was) and after it
// (now): the engine's ΔO d, folded onto was, is now row for row, and names
// no key whose row is the same in both; its answer got is now as well. A
// delta that counts its rows, as every engine's does for the summary its
// Apply returns, must count them so: a row that left is removed, a row
// whose key was in was and did not leave is updated, any other is added.
func CheckStep(ord graph.RowOrder, was, now, got graph.Rows, d graph.RowDelta) error {
	var folded [][]graph.NodeID
	graph.MergeRows(ord, was, []graph.RowDelta{d}, func(row []graph.NodeID) { folded = append(folded, row) })
	if err := sameRows(graph.RaggedRows(folded), now); err != nil {
		return fmt.Errorf("the old answer ⊕ ΔO is not a fresh build's: %w", err)
	}
	if err := sameRows(got, now); err != nil {
		return fmt.Errorf("the answer is not a fresh build's: %w", err)
	}
	var err error
	var left, entered [][]graph.NodeID
	d.Each(func(row []graph.NodeID, gone bool) {
		before, after := rowOf(ord, was, row), rowOf(ord, now, row)
		if err == nil && (before == nil && after == nil || before != nil && after != nil && slices.Equal(before, after)) {
			err = fmt.Errorf("ΔO names %v, whose row did not change", row)
		}
		if gone {
			left = append(left, row)
		} else {
			entered = append(entered, row)
		}
	})
	c, counts := d.(counter)
	if err != nil || !counts {
		return err
	}
	slices.SortFunc(left, ord.CompareRows)
	added, updated := 0, 0
	for _, row := range entered {
		if _, replaced := slices.BinarySearchFunc(left, row, ord.CompareRows); !replaced && rowOf(ord, was, row) != nil {
			updated++
		} else {
			added++
		}
	}
	if a, r, u := c.Counts(); a != added || r != len(left) || u != updated {
		return fmt.Errorf("ΔO counts %d added, %d removed, %d updated; its rows are %d, %d, %d", a, r, u, added, len(left), updated)
	}
	return nil
}

// counter is what every engine's Delta offers beside its rows: the counts
// its Apply summarises ΔO by.
type counter interface {
	Counts() (added, removed, updated int)
}

// sameRows reports the first row at which got and want part.
func sameRows(got, want graph.Rows) error {
	for i := 0; i < got.Len() && i < want.Len(); i++ {
		if !slices.Equal(got.At(i), want.At(i)) {
			return fmt.Errorf("row %d is %v, want %v", i, got.At(i), want.At(i))
		}
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	return nil
}

// rowOf returns the row of rows with row's key, or nil.
func rowOf(ord graph.RowOrder, rows graph.Rows, row []graph.NodeID) []graph.NodeID {
	i := sort.Search(rows.Len(), func(i int) bool { return ord.CompareRows(rows.At(i), row) >= 0 })
	if i < rows.Len() && ord.CompareRows(rows.At(i), row) == 0 {
		return rows.At(i)
	}
	return nil
}
