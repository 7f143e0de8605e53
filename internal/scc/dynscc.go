package scc

import (
	"fmt"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// DynSCC is the dynamic-SCC comparison baseline of the paper's experiments
// (a combination of the incremental algorithm of Haeupler et al. [26] and
// the decremental algorithm of Łącki [32]). We implement a simplified
// stand-in with the same interface and the characteristic cost profile the
// paper observes: it maintains its reachability structures with full
// (unpruned) searches over the contracted graph even when the output is
// stable, and always re-runs a component-scoped Tarjan on intra-component
// deletions. It shares State's node index, member lists and Tarjan kernel
// (partition), so the comparison is between algorithms, not layouts.
type DynSCC struct {
	partition
	gcOut map[CompID]map[CompID]int
	gcIn  map[CompID]map[CompID]int
}

// BuildDyn constructs the baseline state with one Tarjan pass.
func BuildDyn(g *graph.Graph, meter *cost.Meter) *DynSCC {
	d := &DynSCC{
		gcOut: make(map[CompID]map[CompID]int),
		gcIn:  make(map[CompID]map[CompID]int),
	}
	d.init(g, meter)
	for id := CompID(0); id < d.next; id++ {
		d.gcOut[id] = make(map[CompID]int)
		d.gcIn[id] = make(map[CompID]int)
	}
	d.crossEdges(func(cv, cw CompID) {
		d.gcOut[cv][cw]++
		d.gcIn[cw][cv]++
	})
	return d
}

// Apply processes a batch one unit at a time (the baseline has no batch
// optimization).
func (d *DynSCC) Apply(batch graph.Batch) error {
	for _, u := range batch {
		var err error
		if u.Op == graph.Insert {
			err = d.insert(u)
		} else {
			err = d.delete(u)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *DynSCC) insert(u graph.Update) error {
	if err := d.g.Apply(u); err != nil {
		return err
	}
	for _, v := range [2]graph.NodeID{u.From, u.To} {
		if _, ok := d.idx.Get(v); !ok {
			id := d.addNode(v)
			d.gcOut[id] = make(map[CompID]int)
			d.gcIn[id] = make(map[CompID]int)
		}
	}
	d.applyEdge(u)
	cv, cw := d.compOf(u.From), d.compOf(u.To)
	if cv == cw {
		return nil
	}
	fresh := d.gcOut[cv][cw] == 0
	d.gcOut[cv][cw]++
	d.gcIn[cw][cv]++
	if !fresh {
		return nil
	}
	// Unpruned forward search from cw: the "maintenance even when stable"
	// cost of the baseline.
	fwd := d.bfs(cw, true)
	if !fwd[cv] {
		return nil
	}
	bwd := d.bfs(cv, false)
	var cycle []CompID
	for c := range fwd {
		if bwd[c] {
			cycle = append(cycle, c)
		}
	}
	d.merge(cycle)
	return nil
}

func (d *DynSCC) bfs(start CompID, fwd bool) map[CompID]bool {
	seen := map[CompID]bool{start: true}
	queue := []CompID{start}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		d.meter.AddNodes(1)
		adj := d.gcOut[c]
		if !fwd {
			adj = d.gcIn[c]
		}
		for o := range adj {
			d.meter.AddEdges(1)
			if !seen[o] {
				seen[o] = true
				queue = append(queue, o)
			}
		}
	}
	return seen
}

func (d *DynSCC) merge(cycle []CompID) {
	cycleSet := make(map[CompID]bool, len(cycle))
	for _, c := range cycle {
		cycleSet[c] = true
	}
	newOut := make(map[CompID]int)
	newIn := make(map[CompID]int)
	for _, c := range cycle {
		for o, n := range d.gcOut[c] {
			delete(d.gcIn[o], c)
			if !cycleSet[o] {
				newOut[o] += n
			}
		}
		for i, n := range d.gcIn[c] {
			delete(d.gcOut[i], c)
			if !cycleSet[i] {
				newIn[i] += n
			}
		}
		delete(d.gcOut, c)
		delete(d.gcIn, c)
	}
	id := d.largest(cycle)
	d.union(id, cycle)
	d.gcOut[id] = newOut
	d.gcIn[id] = newIn
	for o, n := range newOut {
		d.gcIn[o][id] = n
	}
	for i, n := range newIn {
		d.gcOut[i][id] = n
	}
	d.meter.AddEntries(len(d.members[id]))
}

func (d *DynSCC) delete(u graph.Update) error {
	if err := d.g.Apply(u); err != nil {
		return err
	}
	d.applyEdge(u)
	cv, cw := d.compOf(u.From), d.compOf(u.To)
	if cv != cw {
		if n := d.gcOut[cv][cw]; n > 1 {
			d.gcOut[cv][cw] = n - 1
			d.gcIn[cw][cv] = n - 1
		} else {
			delete(d.gcOut[cv], cw)
			delete(d.gcIn[cw], cv)
		}
		return nil
	}
	// Always recompute the touched component.
	d.runScoped(cv, d.members[cv])
	k := d.t.numComps()
	if k == 1 {
		return nil
	}
	// Split: replace cv by the parts and rebuild incident counters.
	for o := range d.gcOut[cv] {
		delete(d.gcIn[o], cv)
	}
	for i := range d.gcIn[cv] {
		delete(d.gcOut[i], cv)
	}
	delete(d.gcOut, cv)
	delete(d.gcIn, cv)
	old := d.members[cv]
	delete(d.members, cv)
	first := d.mint(old, -1)
	for i := 0; i < k; i++ {
		d.gcOut[first+CompID(i)] = make(map[CompID]int)
		d.gcIn[first+CompID(i)] = make(map[CompID]int)
	}
	for _, v := range d.t.order {
		nv := d.comp[v]
		for _, w := range d.succ[v] {
			if cw := d.comp[w]; cw != nv {
				d.gcOut[nv][cw]++
				d.gcIn[cw][nv]++
			}
		}
		for _, p := range d.pred[v] {
			// Parts are minted from first on: anything older is outside.
			if cp := d.comp[p]; cp < first {
				d.gcOut[cp][nv]++
				d.gcIn[nv][cp]++
			}
		}
	}
	return nil
}

// ComponentsSorted returns the partition in canonical form. The inner
// slices are the baseline's own and must not be modified.
func (d *DynSCC) ComponentsSorted() [][]graph.NodeID { return d.componentsSorted() }

// Check verifies the partition against a fresh Tarjan run.
func (d *DynSCC) Check() error {
	want := Components(d.g)
	got := d.ComponentsSorted()
	if len(want) != len(got) {
		return fmt.Errorf("dynscc: %d components, batch says %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("dynscc: component %d size mismatch", i)
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				return fmt.Errorf("dynscc: component %d differs", i)
			}
		}
	}
	return nil
}
