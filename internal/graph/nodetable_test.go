package graph

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestShardNodeTableConcurrentLoads drives one graph through random node
// and edge updates, isolated nodes, reshards, clones and export→load round
// trips whose P shards load on P goroutines at once, and checks the node
// table against a plain map model after every step: each live node holds
// one slot of its own, in its shard's residue class; shard s's nodes hold
// exactly its local slots 0…n−1, in ID order after a load; each shard
// iterates exactly its nodes; and the node set, labels and edges are the
// model's. IDs come from the dense window and
// from sparse values (negative, ≥ 2^40, far beyond the table), so both
// paths of the index run.
func TestShardNodeTableConcurrentLoads(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkNodeTable(t, seed, 1500)
		})
	}
}

func checkNodeTable(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	labels := map[NodeID]string{}
	edges := map[Edge]bool{}
	g := NewSharded(1 << rng.Intn(4))
	pick := func() NodeID {
		switch r := rng.Intn(10); {
		case r < 6:
			return NodeID(rng.Intn(200))
		case r == 6:
			return -NodeID(1 + rng.Intn(50))
		case r == 7:
			return 1<<40 + NodeID(rng.Intn(50))
		default:
			return NodeID(4*len(labels) + 1024 + rng.Intn(5000))
		}
	}
	existing := func() (NodeID, bool) {
		if len(labels) == 0 {
			return 0, false
		}
		ids := sortedIDs(labels)
		return ids[rng.Intn(len(ids))], true
	}
	sawSparse, sawDirect := false, false
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			op = "add"
			v, l := pick(), fmt.Sprintf("l%d", rng.Intn(4))
			g.AddNode(v, l)
			labels[v] = l
		case r < 38:
			op = "relabel"
			if v, ok := existing(); ok {
				l := fmt.Sprintf("l%d", rng.Intn(4))
				g.AddNode(v, l)
				labels[v] = l
			}
		case r < 48:
			op = "isolate"
			v, ok := existing()
			if !ok {
				break
			}
			for e := range edges {
				if e.From == v || e.To == v {
					if !g.DeleteEdge(e.From, e.To) {
						t.Fatalf("step %d: DeleteEdge(%v) found nothing", step, e)
					}
					delete(edges, e)
				}
			}
		case r < 70:
			op = "add edge"
			v, okv := existing()
			w, okw := existing()
			if okv && okw && g.AddEdge(v, w) == edges[Edge{v, w}] {
				t.Fatalf("step %d: AddEdge(%d,%d) disagrees with the model", step, v, w)
			}
			if okv && okw {
				edges[Edge{v, w}] = true
			}
		case r < 82:
			op = "delete edge"
			if len(edges) == 0 {
				break
			}
			es := make([]Edge, 0, len(edges))
			for e := range edges {
				es = append(es, e)
			}
			slices.SortFunc(es, func(a, b Edge) int {
				return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
			})
			e := es[rng.Intn(len(es))]
			if !g.DeleteEdge(e.From, e.To) {
				t.Fatalf("step %d: DeleteEdge(%v) found nothing", step, e)
			}
			delete(edges, e)
		case r < 88:
			op = "reshard"
			g.SetShards(1 << rng.Intn(4))
		case r < 93:
			op = "clone"
			c := g.Clone()
			if !c.Equal(g) || !g.Equal(c) {
				t.Fatalf("step %d: the clone is not Equal", step)
			}
			g = c
		default:
			op = "export+load"
			g = concurrentRoundTrip(t, g)
		}
		sparse, direct := checkTable(t, g, labels, edges)
		sawSparse = sawSparse || sparse > 0
		sawDirect = sawDirect || direct > 0
		if t.Failed() {
			t.Fatalf("step %d (%s) broke the node table", step, op)
		}
	}
	if !sawSparse || !sawDirect {
		t.Fatalf("one index path never ran: sparse %v, direct %v", sawSparse, sawDirect)
	}
}

// concurrentRoundTrip is exportLoadRoundTrip, checking that the load
// issued every shard's slots in ID order.
func concurrentRoundTrip(t *testing.T, g *Graph) *Graph {
	h := exportLoadRoundTrip(t, g)
	p := h.NumShards()
	for s := 0; s < p; s++ {
		for i, n := range h.ExportShard(s).Nodes {
			if got, want := h.index.Of(n.ID), int32(i*p+s); got != want {
				t.Fatalf("shard %d: node %d loaded at slot %d, want %d", s, n.ID, got, want)
			}
		}
	}
	return h
}

// checkTable compares g's node table with the model and returns how many
// nodes the index holds in its map and in its direct window.
func checkTable(t *testing.T, g *Graph, labels map[NodeID]string, edges map[Edge]bool) (sparse, direct int) {
	t.Helper()
	p := g.NumShards()
	owner := map[int32]NodeID{}
	for v := range labels {
		slot, ok := g.index.Get(v)
		if !ok {
			t.Errorf("node %d has no slot", v)
			continue
		}
		if w, dup := owner[slot]; dup {
			t.Errorf("nodes %d and %d share slot %d", v, w, slot)
		}
		owner[slot] = v
		if n := g.nodes[slot]; !n.live || n.id != v || LabelOf(n.label) != labels[v] {
			t.Errorf("slot %d holds %+v, want live node %d labeled %q", slot, n, v, labels[v])
		}
		if int(slot)%p != g.ShardOf(v) {
			t.Errorf("node %d: slot %d mod %d != shard %d", v, slot, p, g.ShardOf(v))
		}
		if uint64(v) < uint64(len(g.index.direct)) && g.index.direct[v] != 0 {
			direct++
		} else {
			sparse++
		}
	}
	live := 0
	for i, n := range g.nodes {
		if n.live {
			live++
			if owner[int32(i)] != n.id {
				t.Errorf("slot %d holds node %d, which the model does not place there", i, n.id)
			}
		}
	}
	if live != len(labels) || g.NumNodes() != len(labels) || g.index.Len() != len(labels) {
		t.Errorf("live slots %d, NumNodes %d, indexed %d; the model has %d", live, g.NumNodes(), g.index.Len(), len(labels))
	}
	for s := 0; s < p; s++ {
		var got []NodeID
		g.ShardNodes(s, func(v NodeID, lid LabelID) bool {
			if LabelOf(lid) != labels[v] {
				t.Errorf("ShardNodes(%d): node %d labeled %q, want %q", s, v, LabelOf(lid), labels[v])
			}
			got = append(got, v)
			return true
		})
		var want []NodeID
		for v := range labels {
			if g.ShardOf(v) == s {
				want = append(want, v)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) || g.NumShardNodes(s) != len(want) {
			t.Errorf("shard %d holds %v (%d counted), want %v", s, got, g.NumShardNodes(s), want)
		}
		for local := range want {
			if slot := local*p + s; slot >= len(g.nodes) || !g.nodes[slot].live {
				t.Errorf("shard %d: local slot %d of %d is empty", s, local, len(want))
			}
		}
	}
	if want := sortedIDs(labels); !slices.Equal(g.NodesSorted(), want) {
		t.Errorf("NodesSorted = %v, want %v", g.NodesSorted(), want)
	}
	ref := NewSharded(1)
	for v, l := range labels {
		ref.AddNode(v, l)
	}
	for e := range edges {
		ref.AddEdge(e.From, e.To)
	}
	if !g.Equal(ref) || !ref.Equal(g) {
		t.Errorf("the graph is not Equal to the model (|V| %d vs %d, |E| %d vs %d)",
			g.NumNodes(), ref.NumNodes(), g.NumEdges(), ref.NumEdges())
	}
	return sparse, direct
}

// sortedIDs returns the model's nodes in ascending order.
func sortedIDs(labels map[NodeID]string) []NodeID {
	ids := make([]NodeID, 0, len(labels))
	for v := range labels {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	return ids
}
