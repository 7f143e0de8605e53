package bench

import (
	"fmt"
	"time"

	"incgraph/internal/cluster"
	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

// batchChain prepares reps sequentially-valid batches of n updates each:
// batch i is generated against (and then applied to) a scratch clone that
// has absorbed batches 0..i-1, so a runner can replay the whole chain
// through one long-lived session without tripping validation.
func batchChain(g *graph.Graph, n, reps int, seed int64) ([]graph.Batch, error) {
	scratch := g.Clone()
	chain := make([]graph.Batch, reps)
	for i := range chain {
		chain[i] = updates(scratch, n, seed+int64(i))
		if err := scratch.ApplyBatch(chain[i]); err != nil {
			return nil, err
		}
	}
	return chain, nil
}

// clusterWarmUpdates is the per-point warmup budget for figCluster: each
// session absorbs about this many updates before timing starts. A freshly
// cloned graph applies updates several times slower than a seasoned one —
// exact-capacity adjacency slices from the clone keep reallocating until
// their capacities drift above the working degrees, which takes ~30-40k
// updates at this dataset size — and the protocol gate must not measure
// that transient. clusterTimedReps applies are then timed per point and
// the fastest kept.
const (
	clusterWarmUpdates = 40000
	clusterTimedReps   = 5
)

// figCluster measures the distributed two-phase apply against the
// single-process ApplyBatch on the same ΔG sweep: a coordinator with two
// shard workers over the in-process transport (net.Pipe — real framing,
// real parcels, no TCP stack in the loop), so the series isolates the
// protocol cost: plan export, RPC round trips, remote phase 1, delta
// cross-check. On a single-core host the interesting number is the
// overhead ratio; wall-clock wins need workers on other machines.
func figCluster(cfg Config) (*Result, error) {
	g, err := gen.Dataset("synthetic", 0.4*cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	g = cfg.tune(g)
	if g.NumShards() == 1 {
		// Distribution needs shards to ship; default to the differential
		// test's partitioning when the run asked for the unsharded baseline.
		g.SetShards(8)
	}
	pcts := clip(cfg, deltaPcts)
	// This experiment feeds an absolute gate (benchcmp's overhead ratio),
	// so each point is measured warm: a chain of sequential batches flows
	// through one long-lived session — clone once, absorb the warmup
	// prefix untimed, then time the rest and keep the fastest. A one-shot
	// cold-start apply measures the fresh clone's reallocation churn and
	// the segment shipping that precedes it, none of which a serving
	// daemon pays per commit; and the minimum over several warm applies is
	// the closest observable to the protocol's own cost on a shared
	// single-core runner where one preemption can swing a sample 2–5x.
	// Both series get the identical treatment over the identical chains.
	chains := make([][]graph.Batch, len(pcts))
	warms := make([]int, len(pcts))
	for i, p := range pcts {
		n := p * g.NumEdges() / 100
		warms[i] = (clusterWarmUpdates + n - 1) / n
		chains[i], err = batchChain(g, n, warms[i]+clusterTimedReps, cfg.Seed+100+int64(i)*1000)
		if err != nil {
			return nil, err
		}
	}
	chainMin := func(chain []graph.Batch, warm int, apply func(graph.Batch) error) (sample, error) {
		for _, b := range chain[:warm] {
			if err := apply(b); err != nil {
				return sample{}, err
			}
		}
		var best sample
		for i, b := range chain[warm:] {
			s, err := timed(func() error { return apply(b) })
			if err != nil {
				return sample{}, err
			}
			if i == 0 || s.secs < best.secs {
				best = s
			}
		}
		return best, nil
	}
	runners := []struct {
		name string
		run  func(chain []graph.Batch, warm int) (sample, error)
	}{
		{"SingleProc", func(chain []graph.Batch, warm int) (sample, error) {
			h := g.Clone()
			return chainMin(chain, warm, h.ApplyBatch)
		}},
		{"Cluster2w", func(chain []graph.Batch, warm int) (sample, error) {
			h := g.Clone()
			links, _, stop := cluster.InProcess(2)
			defer stop()
			co, err := cluster.NewCoordinator(h, links, cluster.CoordinatorOptions{})
			if err != nil {
				return sample{}, err
			}
			defer co.Close()
			return chainMin(chain, warm, func(b graph.Batch) error {
				return co.Apply(b, time.Time{}, func() error { return h.ApplyBatch(b) })
			})
		}},
	}
	series := make([]Series, len(runners))
	for i, r := range runners {
		series[i] = Series{Name: r.name, Seconds: make([]float64, len(pcts)), Allocs: make([]uint64, len(pcts))}
		for j, chain := range chains {
			s, err := r.run(chain, warms[j])
			if err != nil {
				return nil, fmt.Errorf("%s at point %d: %w", r.name, j, err)
			}
			series[i].Seconds[j] = s.secs
			series[i].Allocs[j] = s.allocs
		}
	}
	x := make([]string, len(pcts))
	for i, p := range pcts {
		x[i] = fmt.Sprintf("%d%%", p)
	}
	res := &Result{
		ID:     "cluster",
		Title:  fmt.Sprintf("distributed ΔG apply — coordinator + 2 shard workers vs single process (synthetic |V|=%d |E|=%d, %d shards)", g.NumNodes(), g.NumEdges(), g.NumShards()),
		XLabel: "|ΔG|/|G|",
		X:      x,
		Series: series,
	}
	var tot float64
	for i := range pcts {
		if series[0].Seconds[i] > 0 {
			tot += series[1].Seconds[i] / series[0].Seconds[i]
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("cluster/single overhead ratio: avg %.2fx over the sweep (in-process transport; single host)", tot/float64(len(pcts))))
	return res, nil
}
