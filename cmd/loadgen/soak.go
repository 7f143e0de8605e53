package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Soak mode: -soak emits one JSON line per sampling window to stdout —
// a time series of client-observed throughput and latency plus the
// daemon's own runtime gauges (goroutine count and heap bytes from
// "stat") — so a multi-hour run shows drift (leaks, growing tails,
// shrinking throughput) as it happens instead of as one final average.

// soakPoint is one emitted window.
type soakPoint struct {
	T          string  `json:"t"`         // wall-clock, RFC3339
	ElapsedSec float64 `json:"elapsed_s"` // since the measurement epoch
	Admitted   int     `json:"admitted"`
	PerSec     float64 `json:"per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Sheds      int     `json:"sheds"`
	Errs       int     `json:"errs"`
	Goroutines int     `json:"goroutines,omitempty"`
	HeapBytes  uint64  `json:"heap_bytes,omitempty"`
}

// soakSampler accumulates one window of samples from every worker.
type soakSampler struct {
	book *addrBook

	mu       sync.Mutex
	admitted int
	sheds    int
	errs     int
	lat      *hist
}

func newSoakSampler(book *addrBook) *soakSampler {
	return &soakSampler{book: book, lat: newHist()}
}

// record adds one completed op to the current window. Workers call it
// from their own goroutines.
func (s *soakSampler) record(smp sample) {
	s.mu.Lock()
	switch {
	case smp.shed:
		s.sheds++
	case smp.err:
		s.errs++
	default:
		s.admitted++
		s.lat.record(smp.dur)
	}
	s.mu.Unlock()
}

// run emits one soakPoint per window until stop closes (plus a final
// partial window so short runs still produce output).
func (s *soakSampler) run(stop <-chan struct{}, every time.Duration, epoch time.Time) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			s.emit(every, epoch)
			return
		case <-t.C:
			s.emit(every, epoch)
		}
	}
}

// emit swaps the window out and prints it.
func (s *soakSampler) emit(window time.Duration, epoch time.Time) {
	s.mu.Lock()
	pt := soakPoint{
		Admitted: s.admitted,
		Sheds:    s.sheds,
		Errs:     s.errs,
	}
	lat := s.lat
	s.admitted, s.sheds, s.errs, s.lat = 0, 0, 0, newHist()
	s.mu.Unlock()

	now := time.Now()
	pt.T = now.Format(time.RFC3339)
	pt.ElapsedSec = now.Sub(epoch).Seconds()
	pt.PerSec = float64(pt.Admitted) / window.Seconds()
	pt.P50Ms = float64(lat.quantile(0.50)) / float64(time.Millisecond)
	pt.P99Ms = float64(lat.quantile(0.99)) / float64(time.Millisecond)
	// The daemon's own gauges ride along when "stat" answers quickly;
	// a dead daemon (mid-failover) just omits them from this point.
	if st, err := stat(s.book.get()); err == nil {
		goroutines, _ := st.Uint("goroutines")
		pt.Goroutines = int(goroutines)
		pt.HeapBytes, _ = st.Uint("heap_bytes")
	}
	line, err := json.Marshal(pt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: soak point: %v\n", err)
		return
	}
	fmt.Fprintln(os.Stdout, string(line))
}
