package main

import "time"

// The machine this runs on is a small share of a busy host. Its speed
// changes by a third and more, for minutes at a time, with what the
// neighbours do (the same arithmetic loop takes 0.16 ms on a quiet core
// and 0.25 ms on a contended one, and every timing of the daemon moves
// with it), and no statistic of a run removes a slow quarter of an hour.
// So a run measures the machine while it measures the daemon: every few
// milliseconds, between two operations, the load generator times one slice
// of a fixed arithmetic loop. The mean slice time over a stretch of the
// run, as a multiple of what the slice takes on the reference machine, is
// the machine's slowdown over that stretch, and every end-to-end time is
// divided by it: times are reported in milliseconds and seconds of the
// reference machine. Across the host's changes of pace, runs of the same
// code then agree two to four times as closely. The loop is arithmetic:
// contention for memory or in the kernel's paths is corrected only as far
// as it comes with contention for the core.
const (
	// paceIters is the length of a slice; the reference machine does 2000
	// iterations in a microsecond (this sandbox, left alone, about 3000).
	paceIters = 500_000
	paceRefMS = paceIters / 2000 / 1000.0
	paceEvery = 10 * time.Millisecond
)

// pace times slices of the reference loop.
type pace struct {
	last   time.Time
	slices []float64
	sink   int
}

// slice times one slice of the loop.
func (p *pace) slice() {
	start := time.Now()
	x := 0
	for i := 0; i < paceIters; i++ {
		x += i * i
	}
	p.sink += x
	p.last = time.Now()
	p.slices = append(p.slices, ms(p.last.Sub(start)))
}

// tick times a slice if none was timed in the last paceEvery.
func (p *pace) tick() {
	if time.Since(p.last) >= paceEvery {
		p.slice()
	}
}

// while times slices on a goroutine of its own, one at once and then one
// every paceEvery, until fn returns: for a stretch during which the load
// generator only waits (a daemon starting), so that nothing calls tick.
func (p *pace) while(fn func() error) error {
	p.slice()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(paceEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.slice()
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	return err
}

// mark is a position in the run; slowdown(from, to) is the machine's
// slowdown between two of them.
func (p *pace) mark() int { return len(p.slices) }

func (p *pace) slowdown(from, to int) float64 {
	return sum(p.slices[from:to]) / float64(to-from) / paceRefMS
}
