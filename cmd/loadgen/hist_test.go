package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The log-bucketed histogram promises ~5% relative resolution; check its
// quantiles against exact order statistics on a random sample.
func TestHistQuantilesWithinBucketResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHist()
	var exact []time.Duration
	for i := 0; i < 20_000; i++ {
		// Log-uniform over ~5 decades, like a real latency distribution's range.
		d := time.Duration(float64(10*time.Microsecond) * math.Pow(10, rng.Float64()*5))
		h.record(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.50, 0.99, 0.999} {
		idx := int(q*float64(len(exact))) - 1
		if idx < 0 {
			idx = 0
		}
		want := exact[idx]
		got := h.quantile(q)
		// The estimate is the lower bound of the bucket holding the rank, so
		// it may sit up to one growth factor below the exact value.
		lo := time.Duration(float64(want) / (histGrowth * histGrowth))
		if got < lo || got > want+time.Microsecond {
			t.Errorf("q%.3f = %v, exact %v (allowed [%v, %v])", q, got, want, lo, want)
		}
	}
}

func TestHistMergeAndEdgeCases(t *testing.T) {
	var empty hist
	if q := empty.quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	a := newHist()
	for i := 0; i < 100; i++ {
		a.record(time.Millisecond)
		a.record(time.Second)
	}
	if q := a.quantile(0.50); q > 2*time.Millisecond {
		t.Fatalf("bimodal p50 = %v, want ~1ms", q)
	}
	if q := a.quantile(0.99); q < 900*time.Millisecond {
		t.Fatalf("bimodal p99 = %v, want ~1s", q)
	}
	// Below the base bucket and beyond the last bucket both stay finite.
	h := newHist()
	h.record(time.Nanosecond)
	h.record(24 * time.Hour)
	if q := h.quantile(1.0); q <= 0 {
		t.Fatalf("overflow quantile = %v", q)
	}
}
