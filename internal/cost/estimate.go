package cost

import "fmt"

// Cost-model estimates for the incremental-vs-batch decision. The paper's
// Figure 8 experiments show both localizable classes losing to their batch
// baselines once ΔG stops being small — IncKWS to BLINKS past |ΔG| ≈ 20%
// of |E|, IncISO to VF2 at batch granularity — because the repair work
// grows with the affected area while the batch cost stays fixed. The
// estimators below predict |AFF| and the two costs from O(1) graph and
// batch statistics, so an engine can route each batch to whichever side
// the model says is cheaper. Estimation must be a pure function of the
// abstract graph and batch (never of worker or shard count), so the
// decision — and therefore the externally observable behavior — is
// identical at any parallelism or sharding configuration.

// FallbackMinBatch is the batch size below which the incremental path is
// always taken: tiny batches are the incremental algorithms' home turf,
// and the estimates are too coarse to overrule them there. IncISO also
// uses it to skip counting anchors on the tiny-batch hot path.
const FallbackMinBatch = 32

// Estimate is one repair-vs-batch prediction.
type Estimate struct {
	// Aff is the predicted size of the affected area |AFF| (nodes for
	// KWS, candidate enumerations for ISO).
	Aff int
	// RepairCost and BatchCost are the predicted work units (comparable
	// to Meter.Total scale) of the incremental repair and the batch
	// recomputation.
	RepairCost, BatchCost int
}

// PreferBatch reports whether the model predicts the batch algorithm to
// be cheaper than the incremental repair.
func (e Estimate) PreferBatch() bool {
	return e.BatchCost > 0 && e.RepairCost > e.BatchCost
}

func (e Estimate) String() string {
	mode := "inc"
	if e.PreferBatch() {
		mode = "batch"
	}
	return fmt.Sprintf("est{aff=%d repair=%d batch=%d -> %s}",
		e.Aff, e.RepairCost, e.BatchCost, mode)
}

// EstimateKWS models the IncKWS repair of one batch against the BLINKS
// batch build (per-keyword bounded BFS over the whole graph).
//
// Affected entries come from deletions that sever a chosen shortest-path
// tree edge: each keyword's next-pointer forest has at most |V| of the |E|
// edges, so a deletion hits it with probability ≈ |V|/|E|, and an affected
// root drags in its ancestor cone, which the bound b truncates to ≈ 1+b
// nodes on average. Insertions only propagate decreases (cheap); they
// contribute their endpoints. Repair pays heap-and-scan work per affected
// entry; batch pays one bounded BFS per keyword.
func EstimateKWS(numNodes, numEdges, ins, dels, bound, keywords int) Estimate {
	if numNodes == 0 || keywords == 0 {
		return Estimate{}
	}
	avgDeg := (numEdges + numNodes - 1) / numNodes
	if avgDeg < 1 {
		avgDeg = 1
	}
	hitNum, hitDen := numNodes, numEdges
	if hitDen < hitNum {
		hitNum, hitDen = 1, 1 // sparse forests: every deletion can hit
	}
	aff := dels*hitNum*(1+bound)/hitDen + ins
	if aff > numNodes {
		aff = numNodes
	}
	logAff := 1
	for n := aff; n > 1; n >>= 1 {
		logAff++
	}
	// Per-affected-entry work: one adjacency scan plus amortized heap
	// traffic. The heap term is halved — most affected entries settle on
	// their first pop — which calibrates the crossover to the empirical
	// ~15–20% of |E| on the Figure 8 workloads instead of tripping at 10%,
	// where IncKWS still wins.
	repair := keywords * aff * (avgDeg + logAff/2)
	batch := keywords * (numNodes + numEdges)
	if ins+dels < FallbackMinBatch {
		repair = 0 // force the incremental side for tiny batches
	}
	return Estimate{Aff: aff, RepairCost: repair, BatchCost: batch}
}

// EstimateISO models the IncISO anchored delta enumeration against the
// VF2 batch pass. Both sides pay one pattern-search subtree per seed: the
// incremental side seeds `anchors` anchored enumerations (the caller
// counts one per label-compatible pattern edge per inserted edge), the
// batch side one VF2 subtree per candidate image of the root pattern
// node. Deletions are near-free on the incremental side (inverted-index
// lookups), so the decision reduces to comparing seed counts; the subtree
// factor cancels and graph size drops out of the model entirely.
func EstimateISO(ins, dels, rootCandidates, anchors int) Estimate {
	if anchors < 0 {
		anchors = 0
	}
	aff := anchors
	repair := aff
	batch := rootCandidates
	if ins+dels < FallbackMinBatch {
		repair = 0 // force the incremental side for tiny batches
	}
	return Estimate{Aff: aff, RepairCost: repair, BatchCost: batch}
}
