package graph_test

// Differential test of the performance substrate: a plain map-based
// reference implementation and the real Graph are driven through the same
// random insert/delete/relabel/isolate stream (edge updates drawn from
// internal/gen's generator), and every few steps the full observable state
// is compared — NodesWithLabel for every live label, degrees, sorted
// adjacency, node and edge sets, and Equal against a rebuilt graph. This is
// what pins the inverted label index, the sorted-slice adjacency at every
// degree, and the slot allocation to the simple semantics they replace.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// refGraph is the trivially correct reference: the representation the
// substrate used before it was rebuilt for speed.
type refGraph struct {
	labels map[graph.NodeID]string
	out    map[graph.NodeID]map[graph.NodeID]bool
	in     map[graph.NodeID]map[graph.NodeID]bool
}

func newRef() *refGraph {
	return &refGraph{
		labels: make(map[graph.NodeID]string),
		out:    make(map[graph.NodeID]map[graph.NodeID]bool),
		in:     make(map[graph.NodeID]map[graph.NodeID]bool),
	}
}

// addNode mirrors Graph.AddNode: inserting an existing node relabels it.
func (r *refGraph) addNode(v graph.NodeID, l string) {
	if _, ok := r.labels[v]; !ok {
		r.out[v] = make(map[graph.NodeID]bool)
		r.in[v] = make(map[graph.NodeID]bool)
	}
	r.labels[v] = l
}

// ensureNode mirrors Graph.EnsureNode: existing nodes keep their label.
func (r *refGraph) ensureNode(v graph.NodeID, l string) {
	if _, ok := r.labels[v]; !ok {
		r.addNode(v, l)
	}
}

func (r *refGraph) addEdge(v, w graph.NodeID) {
	r.out[v][w] = true
	r.in[w][v] = true
}

func (r *refGraph) deleteEdge(v, w graph.NodeID) {
	delete(r.out[v], w)
	delete(r.in[w], v)
}

func (r *refGraph) numEdges() int {
	n := 0
	for _, succ := range r.out {
		n += len(succ)
	}
	return n
}

func (r *refGraph) nodesWithLabel(l string) []graph.NodeID {
	var vs []graph.NodeID
	for v, vl := range r.labels {
		if vl == l {
			vs = append(vs, v)
		}
	}
	sortIDs(vs)
	return vs
}

func sortIDs(vs []graph.NodeID) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

func sortedKeys(m map[graph.NodeID]bool) []graph.NodeID {
	vs := make([]graph.NodeID, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sortIDs(vs)
	return vs
}

func idsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rebuild constructs a fresh Graph from the reference state.
func (r *refGraph) rebuild() *graph.Graph {
	g := graph.New()
	for v, l := range r.labels {
		g.AddNode(v, l)
	}
	for v, succ := range r.out {
		for w := range succ {
			g.AddEdge(v, w)
		}
	}
	return g
}

// compare checks every observable of g against the reference.
func (r *refGraph) compare(t *testing.T, g *graph.Graph, step int) {
	t.Helper()
	if g.NumNodes() != len(r.labels) {
		t.Fatalf("step %d: |V| = %d, want %d", step, g.NumNodes(), len(r.labels))
	}
	if g.NumEdges() != r.numEdges() {
		t.Fatalf("step %d: |E| = %d, want %d", step, g.NumEdges(), r.numEdges())
	}
	labels := make(map[string]bool)
	for v, l := range r.labels {
		labels[l] = true
		if !g.HasNode(v) {
			t.Fatalf("step %d: node %d missing", step, v)
		}
		if got := g.Label(v); got != l {
			t.Fatalf("step %d: node %d label %q, want %q", step, v, got, l)
		}
		if got, want := g.OutDegree(v), len(r.out[v]); got != want {
			t.Fatalf("step %d: node %d out-degree %d, want %d", step, v, got, want)
		}
		if got, want := g.InDegree(v), len(r.in[v]); got != want {
			t.Fatalf("step %d: node %d in-degree %d, want %d", step, v, got, want)
		}
		if got, want := g.SuccessorsSorted(v), sortedKeys(r.out[v]); !idsEqual(got, want) {
			t.Fatalf("step %d: node %d successors %v, want %v", step, v, got, want)
		}
		if got, want := g.PredecessorsSorted(v), sortedKeys(r.in[v]); !idsEqual(got, want) {
			t.Fatalf("step %d: node %d predecessors %v, want %v", step, v, got, want)
		}
	}
	// The inverted label index must answer exactly the reference scan, and
	// labels that died out must be absent from the index entirely.
	for l := range labels {
		if got, want := g.NodesWithLabel(l), r.nodesWithLabel(l); !idsEqual(got, want) {
			t.Fatalf("step %d: NodesWithLabel(%q) = %v, want %v", step, l, got, want)
		}
	}
	count := 0
	g.Labels(func(l string, n int) bool {
		count += n
		if want := len(r.nodesWithLabel(l)); n != want {
			t.Fatalf("step %d: Labels count for %q = %d, want %d", step, l, n, want)
		}
		return true
	})
	if count != len(r.labels) {
		t.Fatalf("step %d: label index covers %d nodes, want %d", step, count, len(r.labels))
	}
	if rebuilt := r.rebuild(); !g.Equal(rebuilt) || !rebuilt.Equal(g) {
		t.Fatalf("step %d: Equal against rebuilt reference failed", step)
	}
}

func TestDifferentialRandomStream(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := gen.Synthetic(gen.GraphSpec{Nodes: 120, Edges: 300, Labels: 7, ZipfLabels: true, Seed: seed})
			ref := newRef()
			g.Nodes(func(v graph.NodeID, l string) bool {
				ref.addNode(v, l)
				return true
			})
			g.Edges(func(e graph.Edge) bool {
				ref.addEdge(e.From, e.To)
				return true
			})
			ref.compare(t, g, -1)

			step := 0
			for round := 0; round < 20; round++ {
				// Edge insert/delete updates from the workload generator,
				// applied to both implementations.
				batch := gen.Updates(g, gen.UpdateSpec{Count: 25, InsertRatio: 0.5, Locality: 0.4, Seed: seed*1000 + int64(round)})
				for _, u := range batch {
					if u.Op == graph.Insert {
						ref.ensureNode(u.From, u.FromLabel)
						ref.ensureNode(u.To, u.ToLabel)
						ref.addEdge(u.From, u.To)
					} else {
						ref.deleteEdge(u.From, u.To)
					}
					if err := g.Apply(u); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					step++
				}
				// Relabels (AddNode on an existing node) exercise the
				// inverted-index maintenance the substrate must get right.
				nodes := g.NodesSorted()
				for i := 0; i < 10 && len(nodes) > 0; i++ {
					v := nodes[rng.Intn(len(nodes))]
					l := fmt.Sprintf("l%d", rng.Intn(9))
					ref.addNode(v, l)
					g.AddNode(v, l)
					step++
				}
				// Occasionally a node loses every edge; it stays a node.
				for i := 0; i < 3 && len(nodes) > 3; i++ {
					v := nodes[rng.Intn(len(nodes))]
					for w := range ref.out[v] {
						ref.deleteEdge(v, w)
						g.DeleteEdge(v, w)
					}
					for u := range ref.in[v] {
						ref.deleteEdge(u, v)
						g.DeleteEdge(u, v)
					}
					step++
				}
				// And fresh nodes take the next slots.
				for i := 0; i < 3; i++ {
					v := g.MaxNodeID() + 1 + graph.NodeID(rng.Intn(5))
					l := fmt.Sprintf("l%d", rng.Intn(9))
					ref.addNode(v, l)
					g.AddNode(v, l)
					step++
				}
				ref.compare(t, g, step)
			}
		})
	}
}

// TestHighDegreeAdjacency grows one node's degree to 100 in random order
// and back down, checking sorted adjacency and membership at every size.
func TestHighDegreeAdjacency(t *testing.T) {
	g := graph.New()
	g.AddNode(0, "hub")
	const n = 100 // a hub far above the mean degree
	for i := 1; i <= n; i++ {
		g.AddNode(graph.NodeID(i), "leaf")
	}
	perm := rand.New(rand.NewSource(7)).Perm(n)
	added := make(map[graph.NodeID]bool)
	for _, i := range perm {
		w := graph.NodeID(i + 1)
		g.AddEdge(0, w)
		added[w] = true
		if got, want := g.SuccessorsSorted(0), sortedKeys(added); !idsEqual(got, want) {
			t.Fatalf("after adding %d edges: successors %v, want %v", len(added), got, want)
		}
		if !g.HasEdge(0, w) {
			t.Fatalf("edge (0,%d) missing right after insert", w)
		}
	}
	for _, i := range perm {
		w := graph.NodeID(i + 1)
		g.DeleteEdge(0, w)
		delete(added, w)
		if g.HasEdge(0, w) {
			t.Fatalf("edge (0,%d) still present after delete", w)
		}
		if got, want := g.SuccessorsSorted(0), sortedKeys(added); !idsEqual(got, want) {
			t.Fatalf("after deleting down to %d edges: successors %v, want %v", len(added), got, want)
		}
	}
}
