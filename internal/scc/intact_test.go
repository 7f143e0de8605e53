package scc

// Tests of IncSCC−'s split decision: the searches' verdict and the parts a
// split publishes against a fresh scoped Tarjan over randomized histories,
// the cost of peeling one member off the giant component, and the budget
// that caps what a batch of searches may spend before the Tarjan runs
// anyway.

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"incgraph/internal/cost"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/history"
)

// checkVerdicts applies b to s through apply and then, for every component
// the batch deleted edges inside, compares searchAll's verdict (unbounded,
// on the state after b, confined to the component's members before b) with
// a scoped Tarjan over the same members: the component is still one iff
// every deleted (v, w) has v ⇝ w inside it. A component found split keeps
// its ID only as the component of one of its parts, and each of the
// Tarjan's parts must be what the engine published: a component of the state, in ΔO, unless a later
// insertion of the batch merged it with nodes from outside the old
// component. The state is audited against Components afterwards.
func checkVerdicts(t *testing.T, s *State, b graph.Batch, apply func(*State, graph.Batch) (Delta, error)) {
	t.Helper()
	comp := slices.Clone(s.comp)
	members := maps.Clone(s.members)
	dels := make(map[CompID][]graph.Update)
	for _, u := range b.Normalize() {
		i, okv := s.idx.Get(u.From)
		j, okw := s.idx.Get(u.To)
		if u.Op == graph.Delete && okv && okw && comp[i] == comp[j] {
			dels[comp[i]] = append(dels[comp[i]], u)
		}
	}
	d, err := apply(s, b)
	if err != nil {
		t.Fatal(err)
	}
	// The probe reads the state's mirror, which now also holds the batch's
	// inter-component insertions, under the old partition; nodes the batch
	// created belong to no old component.
	for len(comp) < len(s.ids) {
		comp = append(comp, -1)
	}
	probe := &State{partition: partition{ids: s.ids, idx: s.idx, succ: s.succ, pred: s.pred, comp: comp, members: members}}
	for c, dl := range dels {
		got := probe.searchAll(c, dl, math.MaxInt)
		probe.roots = probe.roots[:0]
		for _, v := range members[c] {
			probe.roots = append(probe.roots, s.idx.Of(v))
		}
		probe.t.run(probe.succ, probe.roots, comp, c)
		if want := probe.t.numComps() == 1; got != want {
			t.Fatalf("component of %d members after deleting %v: search says intact=%v, scoped Tarjan %v",
				len(members[c]), dl, got, want)
		}
		if got {
			continue
		}
		kept := false
		for i := 0; i < probe.t.numComps(); i++ {
			part := probe.t.comp(i)
			checkPart(t, s, d, part, func(v graph.NodeID) bool { return comp[s.idx.Of(v)] == c })
			kept = kept || s.comp[part[0]] == c
		}
		if _, alive := s.members[c]; alive && !kept {
			t.Fatalf("component of %d members split by %v, and its ID names none of the parts", len(members[c]), dl)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after %d updates: %v", len(b), err)
	}
}

// searchAll reports whether every deletion in dels with both ends in c
// still has its source reaching its target inside c, within budget node
// expansions in all.
func (s *State) searchAll(c CompID, dels []graph.Update, budget int) bool {
	for _, u := range dels {
		v, w := s.idx.Of(u.From), s.idx.Of(u.To)
		if s.comp[v] == c && s.comp[w] == c && s.search(v, w, c, &budget) != met {
			return false
		}
	}
	return true
}

// checkPart requires the part of a split component, given as indices, to be
// a component of s published in d — unless s's component of the part holds
// a node the old component did not (inOld), when it need only contain the
// part.
func checkPart(t *testing.T, s *State, d Delta, part []int32, inOld func(graph.NodeID) bool) {
	t.Helper()
	want := make([]graph.NodeID, 0, len(part))
	for _, x := range part {
		want = append(want, s.ids[x])
	}
	slices.Sort(want)
	got := s.members[s.comp[part[0]]]
	if !slices.ContainsFunc(got, func(v graph.NodeID) bool { return !inOld(v) }) {
		if !slices.Equal(got, want) {
			t.Fatalf("split part %v published as %v", want, got)
		}
		if !slices.ContainsFunc(d.Added, func(a []graph.NodeID) bool { return slices.Equal(a, want) }) {
			t.Fatalf("split part %v missing from ΔO", want)
		}
		return
	}
	for _, x := range part {
		if s.comp[x] != s.comp[part[0]] {
			t.Fatalf("split part %v torn apart: %d and %d in different components", want, s.ids[part[0]], s.ids[x])
		}
	}
}

// TestSearchMatchesScopedTarjan drives randomized histories — small random
// digraphs, and livej-sim with its giant component — whose batches mix
// intra- and inter-component insertions and deletions and create nodes, and
// the split stream, which cuts the giant component's fringe off a few
// members at a time, through Apply and, update by update, through
// ApplyUnitwise. After every step the searches' verdict and the split's
// parts equal the scoped Tarjan's, and the partition equals Components.
func TestSearchMatchesScopedTarjan(t *testing.T) {
	modes := []struct {
		name string
		run  func(t *testing.T, s *State, b graph.Batch)
	}{
		{"Apply", func(t *testing.T, s *State, b graph.Batch) { checkVerdicts(t, s, b, (*State).Apply) }},
		{"ApplyUnitwise", func(t *testing.T, s *State, b graph.Batch) {
			for _, u := range b {
				checkVerdicts(t, s, graph.Batch{u}, (*State).ApplyUnitwise)
			}
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name+"/small", func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 8 + rng.Intn(30)
				g := history.RandomGraph(rng, n, rng.Intn(3*n), "x")
				s := mustState(t, g)
				h := history.New(g, seed)
				for step := 0; step < 8; step++ {
					mode.run(t, s, h.Batch(1+rng.Intn(16)))
				}
			}
		})
		t.Run(mode.name+"/giant", func(t *testing.T) {
			g, err := gen.Dataset("livej", 0.1, 3)
			if err != nil {
				t.Fatal(err)
			}
			s := mustState(t, g)
			h := history.New(g, 17)
			sizes := []int{32, 1, 64, 4, 32, 16}
			if mode.name == "ApplyUnitwise" {
				sizes = sizes[:3]
			}
			for _, k := range sizes {
				mode.run(t, s, h.Batch(k))
			}
		})
		t.Run(mode.name+"/split", func(t *testing.T) {
			g := giantGraph(t)
			s := mustState(t, g)
			for _, b := range splitStream(g, 4) {
				mode.run(t, s, b)
			}
		})
	}
}

// TestPeelBounded cuts one member off the giant component, once by deleting
// its only edge in from the component (the search's backward side runs dry:
// a source side) and once its only edge out (a sink side), and then merges
// it back by re-inserting the edge. The giant keeps its CompID through both,
// and each step meters the work pinned here, which is the searches and the
// member that moved, a few per cent of one scoped Tarjan over the component,
// not a pass over it; the remainder is left dirty. The partition equals
// Components after each step, and ranks and G_c counters pass the audit.
func TestPeelBounded(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rows        func(s *State, x int32) []int32
		cut         func(x, y graph.NodeID) graph.Update
		peel, merge int
	}{
		{"source", func(s *State, x int32) []int32 { return s.pred[x] }, func(w, p graph.NodeID) graph.Update { return graph.Del(p, w) }, 614, 42},
		{"sink", func(s *State, x int32) []int32 { return s.succ[x] }, func(v, q graph.NodeID) graph.Update { return graph.Del(v, q) }, 606, 42},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := giantGraph(t)
			s := mustState(t, g)
			giant := giantOf(s)
			m := &cost.Meter{}
			s.meter = m
			s.repair(giant, s.newDeltaTracker())
			tarjan := m.Total()
			var cut graph.Update
			for _, v := range s.members[giant] {
				x := s.idx.Of(v)
				var inside []int32
				for _, y := range tc.rows(s, x) {
					if s.comp[y] == giant && y != x {
						inside = append(inside, y)
					}
				}
				if len(inside) == 1 {
					cut = tc.cut(v, s.ids[inside[0]])
					break
				}
			}
			if cut.From == cut.To {
				t.Fatal("no member hangs on a single edge")
			}
			for _, step := range []struct {
				name           string
				u              graph.Update
				added, removed int
				work           int
			}{{"peel", cut, 2, 1, tc.peel}, {"merge", cut.Inverse(), 1, 2, tc.merge}} {
				m.Reset()
				d, err := s.Apply(graph.Batch{step.u})
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Removed) != step.removed || len(d.Added) != step.added {
					t.Fatalf("%s %v gave +%d −%d components, want +%d −%d", step.name, step.u, len(d.Added), len(d.Removed), step.added, step.removed)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if giantOf(s) != giant || !s.dirty[giant] {
					t.Fatalf("after the %s the giant is %d (dirty %v), want %d, dirty", step.name, giantOf(s), s.dirty[giantOf(s)], giant)
				}
				if work := m.Total(); work != step.work {
					t.Errorf("the %s metered %d, want %d (one scoped Tarjan: %d)", step.name, work, step.work, tarjan)
				}
				t.Logf("%s %d, scoped Tarjan %d", step.name, m.Total(), tarjan)
			}
		})
	}
}

// ring returns n nodes on a directed ring with a chord from every node to
// the one opposite: one component, whose chords are each other's detours.
func ring(n int) *graph.Graph {
	var edges [][2]int64
	for i := int64(0); i < int64(n); i++ {
		edges = append(edges, [2]int64{i, (i + 1) % int64(n)}, [2]int64{i, (i + int64(n)/2) % int64(n)})
	}
	return mkGraph(n, edges)
}

// TestSearchBudgetRingWithChords deletes a tree arc of the ring, which fails
// the certificate, and then many chords, each of whose detours runs half
// way round: unbounded, the searches would cost tens of scoped Tarjans. The
// budget holds the batch to at most twice the work of the Tarjan it ends up
// running. The tree arc alone, whose detour takes the chords, is proved
// intact by a search a fraction of that Tarjan's cost, which leaves the
// component dirty.
func TestSearchBudgetRingWithChords(t *testing.T) {
	const n = 512
	tarjanWork := func(s *State, c CompID) int {
		m := &cost.Meter{}
		s.meter = m
		s.repair(c, s.newDeltaTracker())
		return m.Total()
	}
	dels := graph.Batch{graph.Del(0, 1)}
	for i := graph.NodeID(1); i <= 64; i++ {
		dels = append(dels, graph.Del(i, i+n/2))
	}
	for _, tc := range []struct {
		name  string
		batch graph.Batch
		limit func(tarjan int) int
		dirty bool
	}{
		{"tree arc and 64 chords", dels, func(tarjan int) int { return 2 * tarjan }, false},
		{"tree arc", graph.Batch{graph.Del(100, 101)}, func(tarjan int) int { return tarjan / 4 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustState(t, ring(n))
			m := &cost.Meter{}
			s.meter = m
			d, err := s.Apply(tc.batch)
			if err != nil {
				t.Fatal(err)
			}
			if d.Len() != 0 || s.Size() != 1 {
				t.Fatalf("the ring fell apart: +%d −%d components", len(d.Added), len(d.Removed))
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			c := s.compOf(0)
			if s.dirty[c] != tc.dirty {
				t.Fatalf("dirty = %v after the batch, want %v", s.dirty[c], tc.dirty)
			}
			work := m.Total()
			tarjan := tarjanWork(s, c)
			if limit := tc.limit(tarjan); work > limit {
				t.Fatalf("batch metered %d, want at most %d (one scoped Tarjan: %d)", work, limit, tarjan)
			}
			t.Logf("batch %d, scoped Tarjan %d", work, tarjan)
		})
	}
}
