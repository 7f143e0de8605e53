// Package gen provides the workload machinery of the experimental study
// (Section 6): synthetic graph generation, scaled-down simulations of the
// paper's real-life datasets (DBpedia and LiveJournal, which are not
// redistributable and 2–3 orders of magnitude larger; Dataset lists what
// each simulation preserves), random update streams ΔG controlled by
// size and insert/delete ratio ρ, and query generators for KWS, RPQ and
// ISO controlled by the same parameters the paper varies.
package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"incgraph/internal/graph"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rex"
)

// GraphSpec describes a synthetic graph.
type GraphSpec struct {
	// Nodes and Edges are |V| and |E|.
	Nodes, Edges int
	// Labels is |Σ|; labels are "l0" … "l{Labels-1}", assigned uniformly
	// unless ZipfLabels is set.
	Labels int
	// ZipfLabels assigns label i with probability ∝ 1/(i+1), matching the
	// heavy-hitter label distributions of real graphs (DBpedia's "person",
	// "place", … dominate). Without skew, uniformly random labels make
	// every multi-label query so selective that neither batch nor
	// incremental evaluation does measurable work.
	ZipfLabels bool
	// GiantSCCFrac, when positive, threads a directed cycle through that
	// fraction of the nodes so the graph contains a giant strongly
	// connected component (LiveJournal's is ~77% of |G|, Exp-1(3)).
	GiantSCCFrac float64
	// AcyclicBias is the probability that a random edge is forced to point
	// from a higher to a lower node ID, yielding the mostly-acyclic,
	// small-SCC structure of knowledge graphs like DBpedia (0 = uniform).
	// The remaining edges are short-range (within a small ID window), so
	// the cycles that do form are small, dense, locally-clustered SCCs —
	// robust to single-edge deletions, like real knowledge-graph cycles —
	// rather than one fragile giant core.
	AcyclicBias float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// LabelName returns the i-th label name.
func LabelName(i int) string { return fmt.Sprintf("l%d", i) }

// Synthetic generates a graph per spec. Edge endpoints are uniform; the
// giant-SCC cycle edges count toward the edge budget.
func Synthetic(spec GraphSpec) *graph.Graph {
	rng := rand.New(rand.NewSource(spec.Seed))
	g := graph.New()
	pickLabel := func() int { return rng.Intn(max(1, spec.Labels)) }
	if spec.ZipfLabels {
		k := max(1, spec.Labels)
		cum := make([]float64, k)
		total := 0.0
		for i := 0; i < k; i++ {
			total += 1 / float64(i+1)
			cum[i] = total
		}
		pickLabel = func() int {
			x := rng.Float64() * total
			lo, hi := 0, k-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
	}
	for i := 0; i < spec.Nodes; i++ {
		g.AddNode(graph.NodeID(i), LabelName(pickLabel()))
	}
	if spec.GiantSCCFrac > 0 && spec.Nodes > 1 {
		k := int(float64(spec.Nodes) * spec.GiantSCCFrac)
		if k > spec.Nodes {
			k = spec.Nodes
		}
		// Two independently-permuted cycles through the same member set:
		// the giant component is 2-edge-connected, so single deletions
		// rarely sever members — matching the robustness of real social
		// graphs' giant SCCs.
		members := rng.Perm(spec.Nodes)[:k]
		for pass := 0; pass < 2; pass++ {
			order := make([]int, k)
			copy(order, members)
			rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
			for i := 0; i < k; i++ {
				g.AddEdge(graph.NodeID(order[i]), graph.NodeID(order[(i+1)%k]))
			}
		}
	}
	for tries := 0; g.NumEdges() < spec.Edges && tries < 20*spec.Edges; tries++ {
		v := graph.NodeID(rng.Intn(spec.Nodes))
		var w graph.NodeID
		switch {
		case spec.AcyclicBias <= 0:
			w = graph.NodeID(rng.Intn(spec.Nodes))
		case rng.Float64() < spec.AcyclicBias:
			// Forward edge (higher → lower ID): never creates a cycle.
			w = graph.NodeID(rng.Intn(spec.Nodes))
			if v < w {
				v, w = w, v
			}
		default:
			// Short-range edge within a small ID window: small dense SCCs.
			off := graph.NodeID(1 + rng.Intn(8))
			if rng.Intn(2) == 0 {
				off = -off
			}
			w = v + off
			if w < 0 || int(w) >= spec.Nodes {
				continue
			}
		}
		if v == w {
			continue
		}
		g.AddEdge(v, w)
	}
	return g
}

// Dataset returns one of the named workload graphs at the given scale
// (1.0 = the default benchmark size; the paper's originals are 2–3 orders
// of magnitude larger). Each simulation keeps the properties the paper's
// measurements turn on: label count and skew, density, cycle structure.
//
//	dbpedia   — 495 labels, E/V ≈ 3, mostly acyclic (knowledge graph)
//	livej     — 100 labels, E/V ≈ 5, giant scc through 77% of nodes
//	synthetic — 100 labels, E/V = 2, mildly acyclic
func Dataset(name string, scale float64, seed int64) (*graph.Graph, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("gen: scale must be positive, got %g", scale)
	}
	switch strings.ToLower(name) {
	case "dbpedia":
		n := int(20000 * scale)
		return Synthetic(GraphSpec{Nodes: n, Edges: 3 * n, Labels: 495, ZipfLabels: true, AcyclicBias: 0.95, Seed: seed}), nil
	case "livej":
		n := int(20000 * scale)
		return Synthetic(GraphSpec{Nodes: n, Edges: 5 * n, Labels: 100, ZipfLabels: true, GiantSCCFrac: 0.77, Seed: seed}), nil
	case "synthetic":
		n := int(25000 * scale)
		return Synthetic(GraphSpec{Nodes: n, Edges: 2 * n, Labels: 100, ZipfLabels: true, AcyclicBias: 0.8, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("gen: unknown dataset %q (want dbpedia, livej or synthetic)", name)
	}
}

// UpdateSpec describes a random batch ΔG.
type UpdateSpec struct {
	// Count is |ΔG| in unit updates.
	Count int
	// InsertRatio is ρ/(1+ρ) where ρ is the paper's insertions:deletions
	// ratio; 0.5 reproduces ρ = 1 (graph size stays stable).
	InsertRatio float64
	// Locality is the probability that an insertion is topology-respecting
	// — a 2-hop shortcut v→w along an existing path v→x→w — rather than a
	// uniform random pair. Real-world edge arrivals are overwhelmingly
	// local (new links attach near existing structure); shortcut edges
	// also never violate topological ranks, which is what lets IncSCC's
	// counter fast path dominate as it does in the paper's measurements.
	Locality float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// Updates builds a batch that is valid when applied to g in order.
// Deletions pick existing edges uniformly; insertions pick fresh edges
// between existing nodes. The generator simulates the batch on a clone, so
// g itself is not modified.
func Updates(g *graph.Graph, spec UpdateSpec) graph.Batch {
	rng := rand.New(rand.NewSource(spec.Seed))
	sim := g.Clone()
	nodes := sim.NodesSorted()
	// EdgesSorted hands out the graph-owned memoized slice; copy it, since
	// the pool below is mutated in place (swap-deletes).
	edges := append([]graph.Edge(nil), sim.EdgesSorted()...)
	batch := make(graph.Batch, 0, spec.Count)
	for len(batch) < spec.Count {
		if rng.Float64() < spec.InsertRatio || len(edges) == 0 {
			var v, w graph.NodeID
			if rng.Float64() < spec.Locality && len(edges) > 0 {
				// 2-hop shortcut along an existing path v→x→w.
				e := edges[rng.Intn(len(edges))]
				if !sim.HasEdge(e.From, e.To) {
					continue
				}
				v = e.From
				succ := sim.SuccessorsSorted(e.To)
				if len(succ) == 0 {
					continue
				}
				w = succ[rng.Intn(len(succ))]
			} else {
				v = nodes[rng.Intn(len(nodes))]
				w = nodes[rng.Intn(len(nodes))]
			}
			if v == w || sim.HasEdge(v, w) {
				continue
			}
			u := graph.Ins(v, w)
			sim.Apply(u)
			edges = append(edges, graph.Edge{From: v, To: w})
			batch = append(batch, u)
		} else {
			i := rng.Intn(len(edges))
			e := edges[i]
			if !sim.HasEdge(e.From, e.To) { // already deleted
				edges[i] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
				continue
			}
			u := graph.Del(e.From, e.To)
			sim.Apply(u)
			edges[i] = edges[len(edges)-1]
			edges = edges[:len(edges)-1]
			batch = append(batch, u)
		}
	}
	return batch
}

// labelHistogram returns the labels of g sorted by decreasing frequency.
// The counts come straight off the graph's inverted label index: O(|Σ|)
// rather than a full node scan.
func labelHistogram(g *graph.Graph) []string {
	count := make(map[string]int)
	labels := make([]string, 0, 64)
	g.Labels(func(l string, n int) bool {
		count[l] = n
		labels = append(labels, l)
		return true
	})
	sort.Slice(labels, func(i, j int) bool {
		if count[labels[i]] != count[labels[j]] {
			return count[labels[i]] > count[labels[j]]
		}
		return labels[i] < labels[j]
	})
	return labels
}

// KWSQuery samples a keyword query with m keywords drawn from the most
// frequent labels of g (so matches exist) and bound b.
func KWSQuery(g *graph.Graph, m, b int, seed int64) (kws.Query, error) {
	labels := labelHistogram(g)
	if len(labels) < m {
		return kws.Query{}, fmt.Errorf("gen: graph has %d labels, need %d keywords", len(labels), m)
	}
	rng := rand.New(rand.NewSource(seed))
	top := labels[:min(len(labels), 4*m)]
	perm := rng.Perm(len(top))
	kw := make([]string, m)
	for i := 0; i < m; i++ {
		kw[i] = top[perm[i]]
	}
	return kws.Query{Keywords: kw, Bound: b}, nil
}

// RPQQuery builds a random regular path expression with exactly size label
// occurrences over g's frequent labels, mixing concatenation, union and
// Kleene star the way the paper's generator varies ·, + and *.
func RPQQuery(g *graph.Graph, size int, seed int64) (*rex.Ast, error) {
	if size < 1 {
		return nil, fmt.Errorf("gen: query size must be ≥ 1")
	}
	labels := labelHistogram(g)
	if len(labels) == 0 {
		return nil, fmt.Errorf("gen: graph has no labels")
	}
	top := labels[:min(len(labels), 12)]
	rng := rand.New(rand.NewSource(seed))
	pick := func() *rex.Ast { return rex.Label(top[rng.Intn(len(top))]) }
	// Build `size` leaves, then combine with weighted operators.
	var build func(k int) *rex.Ast
	build = func(k int) *rex.Ast {
		if k == 1 {
			a := pick()
			if rng.Intn(4) == 0 {
				return rex.Rep(a)
			}
			return a
		}
		l := 1 + rng.Intn(k-1)
		left, right := build(l), build(k-l)
		switch rng.Intn(4) {
		case 0:
			return rex.Or(left, right)
		case 1:
			return rex.Cat(left, rex.Rep(right))
		default:
			return rex.Cat(left, right)
		}
	}
	return build(size), nil
}

// RPQDense builds the RPQ of the figure benchmarks: first · (union)* · last
// over g's frequent labels, with `size` label occurrences in total. Unlike
// fully random expressions — whose language intersection with a uniformly
// labeled graph is almost always empty — the star over a label union keeps
// the product graph supercritical: from a node with the first label, every
// successor carrying one of the union's labels continues the walk, so on a
// graph whose alphabet is folded to a few labels a source's marking table
// spans tens of product nodes instead of one or two, an update lands inside
// some source's table more often than not, and batch and incremental
// evaluation both do real work. perf/README.md has the measurements.
func RPQDense(g *graph.Graph, size int, seed int64) (*rex.Ast, error) {
	if size < 3 {
		return RPQQuery(g, size, seed)
	}
	labels := labelHistogram(g)
	if len(labels) < 2 {
		return nil, fmt.Errorf("gen: need at least 2 labels")
	}
	rng := rand.New(rand.NewSource(seed))
	top := labels[:min(len(labels), size+2)]
	perm := rng.Perm(len(top))
	first := rex.Label(top[perm[0]])
	last := rex.Label(top[perm[1]])
	union := rex.Label(top[perm[2%len(perm)]])
	for i := 3; i < size && i < len(perm); i++ {
		union = rex.Or(union, rex.Label(top[perm[i]]))
	}
	// Left-nested, as the parser builds a chain: the expression prints as
	// first.(union)*.last and parses back to this very tree.
	return rex.Cat(rex.Cat(first, rex.Rep(union)), last), nil
}

// Relabel returns a copy of g with its alphabet folded down to k labels
// (label li → l(i mod k)). The RPQ benchmark panels use it to emulate the
// heavy-hitter label distributions of real knowledge graphs.
func Relabel(g *graph.Graph, k int) *graph.Graph {
	out := graph.New()
	for _, v := range g.NodesSorted() {
		var idx int
		fmt.Sscanf(g.Label(v), "l%d", &idx)
		out.AddNode(v, LabelName(idx%k))
	}
	g.Edges(func(e graph.Edge) bool {
		out.AddEdge(e.From, e.To)
		return true
	})
	return out
}

// Densify adds k short-range edges (within a small node-ID window) to a
// copy of g, creating the locally clustered neighborhoods in which motif
// queries have non-trivial partial embeddings. The ISO benchmark panels use
// it because uniformly random sparse graphs contain essentially no dense
// motifs (clustering coefficient → 0), unlike real knowledge and social
// graphs.
func Densify(g *graph.Graph, k int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := g.Clone()
	nodes := out.NodesSorted()
	if len(nodes) < 3 {
		return out
	}
	for tries := 0; k > 0 && tries < 40*k; tries++ {
		v := nodes[rng.Intn(len(nodes))]
		off := graph.NodeID(1 + rng.Intn(6))
		if rng.Intn(2) == 0 {
			off = -off
		}
		w := v + off
		if !out.HasNode(w) || v == w || out.HasEdge(v, w) {
			continue
		}
		out.AddEdge(v, w)
		k--
	}
	return out
}

// ISOQuery generates a weakly connected pattern with vq nodes and eq edges
// whose shape follows the paper's (|V_Q|, |E_Q|, d_Q) parameterization: a
// backbone path of length d_Q guides the diameter, remaining nodes attach
// to random backbone positions, and extra edges are added up to eq.
// Labels are sampled from g's frequent labels.
func ISOQuery(g *graph.Graph, vq, eq, dq int, seed int64) (*iso.Pattern, error) {
	if vq < 1 {
		return nil, fmt.Errorf("gen: pattern needs at least one node")
	}
	if dq >= vq {
		dq = vq - 1
	}
	minEdges := vq - 1
	maxEdges := vq * (vq - 1)
	if eq < minEdges {
		eq = minEdges
	}
	if eq > maxEdges {
		eq = maxEdges
	}
	labels := labelHistogram(g)
	if len(labels) == 0 {
		return nil, fmt.Errorf("gen: graph has no labels")
	}
	top := labels[:min(len(labels), 4)]
	rng := rand.New(rand.NewSource(seed))
	pg := graph.New()
	for i := 0; i < vq; i++ {
		pg.AddNode(graph.NodeID(i), top[rng.Intn(len(top))])
	}
	// Backbone 0→1→…→dq.
	for i := 0; i < dq; i++ {
		pg.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	// Attach the rest.
	for i := dq + 1; i < vq; i++ {
		anchor := graph.NodeID(rng.Intn(i))
		if rng.Intn(2) == 0 {
			pg.AddEdge(anchor, graph.NodeID(i))
		} else {
			pg.AddEdge(graph.NodeID(i), anchor)
		}
	}
	for tries := 0; pg.NumEdges() < eq && tries < 50*eq; tries++ {
		v := graph.NodeID(rng.Intn(vq))
		w := graph.NodeID(rng.Intn(vq))
		if v == w {
			continue
		}
		pg.AddEdge(v, w)
	}
	return iso.NewPattern(pg)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
