package cost

import (
	"strings"
	"testing"
)

func TestNilMeterIsSafe(t *testing.T) {
	var m *Meter
	m.AddNodes(5)
	m.AddEdges(5)
	m.AddEntries(5)
	m.AddHeapOps(5)
	m.Reset()
	if m.Total() != 0 {
		t.Fatalf("nil meter total = %d", m.Total())
	}
	if m.String() != "cost{nil}" {
		t.Fatalf("nil meter string = %q", m.String())
	}
}

func TestCounters(t *testing.T) {
	m := &Meter{}
	m.AddNodes(1)
	m.AddEdges(2)
	m.AddEntries(3)
	m.AddHeapOps(4)
	if m.Nodes != 1 || m.Edges != 2 || m.Entries != 3 || m.HeapOps != 4 {
		t.Fatalf("counters = %+v", m)
	}
	if m.Total() != 10 {
		t.Fatalf("total = %d", m.Total())
	}
	if !strings.Contains(m.String(), "total=10") {
		t.Fatalf("string = %q", m.String())
	}
	m.Reset()
	if m.Total() != 0 {
		t.Fatalf("reset failed: %+v", m)
	}
}

func TestEstimateKWSCrossover(t *testing.T) {
	// Bench-shaped workload: |V|=1200, |E|=6000, m=3, b=2. The model must
	// keep small batches incremental and route |ΔG| near half of |E| to
	// the batch side (the empirical IncKWS/BLINKS crossover region).
	small := EstimateKWS(1200, 6000, 30, 30, 2, 3)
	if small.PreferBatch() {
		t.Fatalf("small batch routed to batch rebuild: %v", small)
	}
	tiny := EstimateKWS(10, 20, 3, 3, 2, 2)
	if tiny.PreferBatch() {
		t.Fatalf("tiny batch on tiny graph routed to batch rebuild: %v", tiny)
	}
	huge := EstimateKWS(1200, 6000, 1500, 1500, 2, 3)
	if !huge.PreferBatch() {
		t.Fatalf("|ΔG|=50%% of |E| stayed incremental: %v", huge)
	}
	if huge.Aff <= small.Aff || huge.Aff > 1200 {
		t.Fatalf("affected-area estimate not monotone/capped: small=%d huge=%d", small.Aff, huge.Aff)
	}
}

func TestEstimateISOCrossover(t *testing.T) {
	// Incremental seeds the counted anchored enumerations; batch opens
	// one subtree per root candidate. More anchors than root candidates
	// → batch.
	inc := EstimateISO(40, 40, 200, 40)
	if inc.PreferBatch() {
		t.Fatalf("40 insertions vs 200 candidates routed to batch: %v", inc)
	}
	batch := EstimateISO(500, 500, 200, 500)
	if !batch.PreferBatch() {
		t.Fatalf("500 insertions vs 200 candidates stayed incremental: %v", batch)
	}
	small := EstimateISO(10, 2, 3, 10)
	if small.PreferBatch() {
		t.Fatalf("sub-floor batch routed to batch rebuild: %v", small)
	}
	// Multiple compatible pattern edges per insertion multiply the seeds:
	// 100 insertions × 3 anchors beat 250 candidates, 100 × 1 do not.
	multi := EstimateISO(100, 0, 250, 300)
	single := EstimateISO(100, 0, 250, 100)
	if !multi.PreferBatch() || single.PreferBatch() {
		t.Fatalf("anchor multiplicity ignored: multi=%v single=%v", multi, single)
	}
}
