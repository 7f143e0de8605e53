package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timeMedian runs fn n times and returns the median wall time.
func timeMedian(n int, fn func() error) (time.Duration, error) {
	ts := make([]float64, n)
	for i := range ts {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(start))
	}
	return time.Duration(median(ts)), nil
}

func p50(xs []float64) float64  { return percentile(xs, 0.50) }
func p95(xs []float64) float64  { return percentile(xs, 0.95) }
func p99(xs []float64) float64  { return percentile(xs, 0.99) }
func p999(xs []float64) float64 { return percentile(xs, 0.999) }
