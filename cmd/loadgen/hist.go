package main

import (
	"math"
	"time"
)

// hist is a log-bucketed latency histogram: bucket i covers
// [base*growth^i, base*growth^(i+1)), so relative resolution is constant
// (~5% here) across six orders of magnitude while the whole histogram is
// a few hundred counters — a load run records millions of samples without
// holding them.
type hist struct {
	counts []uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

const (
	histBase   = 10 * time.Microsecond
	histGrowth = 1.05
	histBukets = 400 // histBase * histGrowth^400 ≈ 49 minutes
)

func newHist() *hist { return &hist{counts: make([]uint64, histBukets)} }

func bucketOf(d time.Duration) int {
	if d < histBase {
		return 0
	}
	i := int(math.Log(float64(d)/float64(histBase)) / math.Log(histGrowth))
	if i >= histBukets {
		return histBukets - 1
	}
	return i
}

// bucketLow is the lower bound of bucket i (the reported percentile
// value; pessimistic by at most one growth factor).
func bucketLow(i int) time.Duration {
	return time.Duration(float64(histBase) * math.Pow(histGrowth, float64(i)))
}

func (h *hist) record(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// quantile returns the latency at fraction q (0 < q <= 1), or 0 when the
// histogram is empty. The true value lies within one bucket width.
func (h *hist) quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

func (h *hist) mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}
