package main

import (
	"time"

	"incgraph/internal/cost"
	"incgraph/internal/graph"
)

// The paper's Section 6 claim — incremental repair beats recomputation,
// and batch repair beats the unit-update loop — is measured on sampled
// batches of the stream, the way internal/bench measures it: Apply,
// ApplyUnitwise and the batch rival each start from a freshly built state
// of the graph as it stands before the batch, so the three are comparable
// with each other (an engine that has absorbed thousands of batches is
// not comparable with a fresh rival: seasoned adjacency slices apply
// several times faster than freshly cloned ones).
//
// All four classes are sampled on every workload. For a standing class
// the samples give vs_batch and vs_unit only; for a class the workload
// does not maintain they also give repair times, work and |ΔO| (its share
// of the commit is 0 by definition), so every class is measured on all
// three graph shapes the workloads use.

// maxSamples bounds the sampled batches of a run: a sample costs two
// builds and a rival per class.
const maxSamples = 8

// sampleAt reports whether the i-th of timed batches is sampled: every
// 50th batch, or as many evenly spaced batches as limit allows, and one at
// least.
func sampleAt(i, timed, limit int) bool {
	k := min(limit, max(1, timed/50))
	for j := 0; j < k; j++ {
		if i == (2*j+1)*timed/(2*k) {
			return true
		}
	}
	return false
}

// sampleTwins measures batch b against pre, the graph as it stands before
// b, for every class.
func (r *run) sampleTwins(pre *graph.Graph, b graph.Batch, classes map[string]*engineStats) error {
	for _, class := range classOrder {
		st := classes[class]
		var meter cost.Meter
		clone := pre.Clone()
		start := time.Now()
		twin, err := r.q.build(class, clone, &meter)
		if err != nil {
			return err
		}
		if !st.standing {
			st.build = time.Since(start)
		}
		built := meter.Total()
		start = time.Now()
		sum, err := twin.Apply(b)
		took := time.Since(start)
		if err != nil {
			return err
		}
		st.twinApply += took
		if !st.standing {
			st.record(took, meter.Total()-built, sum, len(b), twin)
		}

		// The rival recomputes on the updated graph, which the first twin
		// now holds.
		start = time.Now()
		if err := r.q.rival(class, twin.Graph()); err != nil {
			return err
		}
		st.twinRival += time.Since(start)

		unit, err := r.q.build(class, pre.Clone(), nil)
		if err != nil {
			return err
		}
		start = time.Now()
		if err := unit.unitwise(b); err != nil {
			return err
		}
		st.twinUnit += time.Since(start)
	}
	return nil
}
