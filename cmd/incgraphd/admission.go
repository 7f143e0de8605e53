package main

// Overload protection for the serving path. Three layers, outermost
// first:
//
//   - Accept-time shedding: past -max-conns the daemon accepts, replies
//     "err overloaded ..." and closes, so the kernel backlog never grows
//     unboundedly and a healthy client gets an explicit answer instead of
//     a hang.
//   - Per-connection deadlines: a full line must arrive within
//     -idle-timeout. The read deadline is armed when a wait for the
//     connection starts: not per line already buffered (a burst of lines
//     that arrived together is read under the one deadline its wait
//     armed), and NOT refreshed per byte, so a byte-at-a-time slow-loris
//     is cut exactly like an idle one. Every reply flush must complete
//     within the op timeout (one write deadline armed per flush), and a
//     connection can stage at most -max-staged updates.
//   - Admission gates in front of commit and query: a bounded number of
//     ops in flight, a bounded queue behind them, and a per-op budget on
//     the queue wait. Excess load is shed as "err overloaded: ...; retry"
//     the moment the queue is full — the degradation contract is an
//     explicit reply in bounded time, never an unbounded queue.
//
// Every shed, timeout, oversized line and deadline disconnect is counted
// and surfaced by "stat".

import (
	"errors"
	"flag"
	"sync/atomic"
	"time"
)

// limits bundles the serving path's overload-protection knobs. The zero
// value disables everything (tests construct servers directly); the flag
// defaults are the production posture.
type limits struct {
	// maxConns caps concurrently served connections; excess connections
	// are shed at accept time (0 = unlimited).
	maxConns int
	// idle is the per-line read deadline: a full command line must arrive
	// within it, however slowly the bytes trickle (0 = none).
	idle time.Duration
	// opTimeout is the per-op budget: the admission queue wait and each
	// reply flush (0 = none).
	opTimeout time.Duration
	// maxStaged caps updates staged on one connection (0 = unlimited).
	maxStaged int
	// Commit and read admission gates: slots in flight, queue behind them
	// (slots 0 = ungated).
	commitSlots, commitQueue int
	readSlots, readQueue     int
}

// defaultLimits is the production posture: generous enough that a sane
// interactive client never notices, bounded enough that nothing is
// unbounded.
func defaultLimits() limits {
	return limits{
		maxConns:    4096,
		idle:        5 * time.Minute,
		opTimeout:   10 * time.Second,
		maxStaged:   1 << 20,
		commitSlots: 4, commitQueue: 64,
		readSlots: 64, readQueue: 256,
	}
}

// limitFlags registers the overload-protection flags on fs and returns
// the limits they fill (shared by the primary and standby subcommands).
func limitFlags(fs *flag.FlagSet) *limits {
	lim := defaultLimits()
	fs.IntVar(&lim.maxConns, "max-conns", lim.maxConns, "max concurrent connections; excess are shed at accept with an explicit error (0 = unlimited)")
	fs.DurationVar(&lim.idle, "idle-timeout", lim.idle, "per-line read deadline: a full command line must arrive within this, however slowly bytes trickle (0 = none)")
	fs.DurationVar(&lim.opTimeout, "op-timeout", lim.opTimeout, "per-op budget: admission queue wait; each reply flush (0 = none)")
	fs.IntVar(&lim.maxStaged, "max-staged", lim.maxStaged, "max updates staged per connection (0 = unlimited)")
	fs.IntVar(&lim.commitSlots, "commit-inflight", lim.commitSlots, "max commits in flight; more queue, then shed (0 = ungated)")
	fs.IntVar(&lim.commitQueue, "commit-queue", lim.commitQueue, "max commits queued behind the in-flight ones before shedding")
	fs.IntVar(&lim.readSlots, "read-inflight", lim.readSlots, "max query/answer renders in flight; more queue, then shed (0 = ungated)")
	fs.IntVar(&lim.readQueue, "read-queue", lim.readQueue, "max reads queued behind the in-flight ones before shedding")
	return &lim
}

// errOverloaded is the gate's shed verdict; the caller renders the
// "err overloaded: ...; retry" reply with the op-class context.
var errOverloaded = errors.New("overloaded")

// gate is a bounded admission queue: up to cap(slots) ops in flight, up
// to maxQueue more waiting at most `wait` each. Anything past that is
// shed immediately — the queue is how overload stays an explicit, bounded
// reply instead of memory growth and collapse.
type gate struct {
	slots    chan struct{}
	waiters  atomic.Int64
	maxQueue int64
	wait     time.Duration

	admitted atomic.Uint64 // ops that got a slot
	shed     atomic.Uint64 // rejected: queue full
	timeouts atomic.Uint64 // rejected: queued past the op budget
}

// newGate builds a gate; slots <= 0 returns nil (an ungated nil gate
// admits everything).
func newGate(slots, queue int, wait time.Duration) *gate {
	if slots <= 0 {
		return nil
	}
	if wait <= 0 {
		wait = time.Hour // effectively unbounded, but never infinite
	}
	return &gate{
		slots:    make(chan struct{}, slots),
		maxQueue: int64(queue),
		wait:     wait,
	}
}

// enter admits the op or sheds it with errOverloaded. Callers must exit()
// after a nil return.
func (g *gate) enter() error {
	if g == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	default:
	}
	if g.waiters.Add(1) > g.maxQueue {
		g.waiters.Add(-1)
		g.shed.Add(1)
		return errOverloaded
	}
	defer g.waiters.Add(-1)
	t := time.NewTimer(g.wait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return nil
	case <-t.C:
		g.timeouts.Add(1)
		return errOverloaded
	}
}

// exit releases the slot enter acquired.
func (g *gate) exit() {
	if g != nil {
		<-g.slots
	}
}

// counters renders the gate's counters for "stat" (zeros when ungated).
func (g *gate) stats() (admitted, shed, timeouts uint64) {
	if g == nil {
		return 0, 0, 0
	}
	return g.admitted.Load(), g.shed.Load(), g.timeouts.Load()
}

// retryHint ends every shed's detail: the client-facing retry delay, long
// enough for a queue drain to make progress, short enough that a retrying
// client converges quickly once load drops.
const retryHint = "; retry in 100ms"
