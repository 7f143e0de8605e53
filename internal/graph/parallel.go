package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel execution support. The graph substrate follows a two-part
// concurrency contract:
//
//   - Mutations (AddNode, AddEdge, DeleteEdge, DeleteNode, Apply*) require
//     exclusive access: no other goroutine may touch the graph while one
//     runs.
//   - Between mutations the graph is read-shareable: any number of
//     goroutines may run queries and traversal kernels concurrently, at any
//     parallelism, with no preparation step. Adjacency and the label index
//     are sorted slices kept sorted by the mutations themselves (adjset.go),
//     so no read writes anything back.
//
// The incremental engines (kws, rpq, iso) lean on this split: they apply
// ΔG under exclusive access, then run their repair loops — per keyword,
// per affected source, per inserted edge — against the read-only graph
// through ParallelFor, as do their batch builds and the snapshot codec.
// ParallelFor is the one fan-out primitive: the calling goroutine always
// takes part and never waits for help that did not arrive in time, so a
// loop is only ever as wide as it is long. SetParallelism caps how wide a
// loop may become; it never makes one wide.

// SetParallelism sets the worker budget of the engines maintaining this
// graph and of any ParallelFor keyed off it: the most goroutines one
// parallel batch build, repair or snapshot loop may use, the caller
// included. It is a cap, not a width — a loop that is over before a
// helper can arrive runs on its caller alone whatever the budget. n <= 0
// restores the default, runtime.GOMAXPROCS(0). n == 1 forces sequential
// execution (useful for deterministic debugging and baseline
// measurements). Clones inherit the setting. Not safe to call
// concurrently with reads; set it up front.
func (g *Graph) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	g.workers = n
}

// Parallelism returns the effective worker budget: the value set with
// SetParallelism, or runtime.GOMAXPROCS(0) when unset.
func (g *Graph) Parallelism() int {
	if g.workers > 0 {
		return g.workers
	}
	return runtime.GOMAXPROCS(0)
}

// PrepareConcurrentReads does nothing: the graph is read-shareable between
// mutations as it stands. It remains only because the perf module's
// replay still calls it; it goes when that call does.
func (g *Graph) PrepareConcurrentReads() {}

// EagerFanOut is a test hook: until the returned function is called, every
// ParallelFor starts all the helpers its budget allows and holds its first
// iteration back until each of them is running, so inputs far too small to
// keep a helper busy still run their merges concurrently — the
// workers=1 ≡ workers=N pins and the race detector need that. This package
// is internal and nothing outside tests calls it; the eagerfanout build
// tag turns it on for a whole test binary.
func EagerFanOut() (restore func()) {
	prev := eagerFanOut.Swap(true)
	return func() { eagerFanOut.Store(prev) }
}

var eagerFanOut atomic.Bool

// FanOutStats are process-wide ParallelFor counters: loops run (any n > 0,
// whatever the budget), loops in which a helper arrived in time to run at
// least one iteration — the fan-out engaged — and helper goroutines
// started in total. A loop that did not engage ran entirely on its calling
// goroutine, which waited for nobody.
type FanOutStats struct {
	Loops, Engaged, Helpers uint64
}

var fanOutStats struct {
	loops, engaged, helpers atomic.Uint64
}

// Sub returns the counts accumulated since prev was read.
func (s FanOutStats) Sub(prev FanOutStats) FanOutStats {
	return FanOutStats{Loops: s.Loops - prev.Loops, Engaged: s.Engaged - prev.Engaged, Helpers: s.Helpers - prev.Helpers}
}

// ReadFanOutStats returns the counters since process start.
func ReadFanOutStats() FanOutStats {
	return FanOutStats{
		Loops:   fanOutStats.loops.Load(),
		Engaged: fanOutStats.engaged.Load(),
		Helpers: fanOutStats.helpers.Load(),
	}
}

// ParallelFor runs fn(worker, i) for every i in [0, n) on at most
// `workers` goroutines, the calling goroutine among them.
//
// Help is offered, never waited for. The caller is worker 0: it starts one
// helper and at once begins claiming chunks of iterations from a shared
// counter itself. Starting the helper costs it a goroutine creation and,
// if no thread is awake to run it, one wake; nothing else. A helper that
// arrives while iterations are still unclaimed takes a chunk and, if more
// remain after that, starts the next helper — so width grows by one per
// wake latency for exactly as long as there is work to find, up to the
// budget, and the time it takes a helper to arrive is the only grain there
// is. A helper that arrives to an exhausted range leaves without a trace.
// When the caller runs out of chunks it waits only for helpers that took
// one. A loop shorter than a wake therefore runs on its caller alone,
// which parks for nobody; a loop of two long iterations (two shards to
// decode, two keywords to search) overlaps them from the start; a long
// loop runs at full width within a few wake latencies.
//
// Chunks shrink with what is left (an eighth of an even share), so a loop
// over every node pays the shared counter a few dozen times, not per
// node, and the last chunks are small enough to finish together.
//
// worker is a dense id in [0, min(workers, n)) that no two running
// goroutines hold at once, so callers can key per-worker accumulators
// (meters, delta buffers) off it and merge deterministically afterwards;
// which iterations share a worker, and how many workers take part,
// depends on timing, so results must not. With workers <= 1 (or n <= 1)
// it is a plain sequential loop. A panic in any iteration — the caller's
// own included — stops the claiming of further chunks and is re-raised on
// the calling goroutine after every helper that took part has returned.
// The caller never waits while there is an iteration it could run itself,
// so a ParallelFor inside an iteration cannot deadlock. There is no
// persistent pool: a parked worker needs the same wake a new goroutine
// does, and the wake is what costs.
func ParallelFor(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	fanOutStats.loops.Add(1)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	l := &fanOut{n: int64(n), workers: workers, fn: fn, eager: eagerFanOut.Load()}
	l.idle.L = &l.mu
	if l.eager {
		l.arrived.Add(workers - 1)
		for w := 1; w < workers; w++ {
			l.start(w)
		}
		l.arrived.Wait()
	} else {
		l.start(1)
	}
	l.work(0)
	// Every iteration is claimed. A helper holding a claim counted itself
	// into active before it claimed; one that counts itself in from here
	// on finds nothing to claim and touches nothing but l.
	l.mu.Lock()
	for l.active.Load() != 0 {
		l.idle.Wait()
	}
	l.mu.Unlock()
	if l.fault != nil {
		panic(l.fault)
	}
}

// chunksPerWorker is how finely a loop cuts what is left: a claim takes
// 1/chunksPerWorker of an even share of the unclaimed iterations.
const chunksPerWorker = 8

// fanOut is the shared state of one ParallelFor.
type fanOut struct {
	next    atomic.Int64 // first unclaimed iteration
	n       int64
	workers int
	fn      func(worker, i int)
	eager   bool // EagerFanOut was on when the loop began

	started atomic.Int32   // helpers started so far; their ids are 1..started
	active  atomic.Int32   // helpers between counting themselves in and out
	engaged atomic.Bool    // a helper has claimed a chunk
	arrived sync.WaitGroup // eager: helpers that have yet to start running

	stop  atomic.Bool // a worker panicked: claim nothing more
	mu    sync.Mutex  // guards fault; idle's lock
	idle  sync.Cond   // signalled when active drops to zero
	fault any         // first panic value
}

// start creates helper w, unless the budget is spent or it exists already.
func (l *fanOut) start(w int) {
	if w >= l.workers || !l.started.CompareAndSwap(int32(w-1), int32(w)) {
		return
	}
	fanOutStats.helpers.Add(1)
	go func() {
		l.active.Add(1)
		if l.eager {
			l.arrived.Done()
		}
		l.work(w)
		if l.active.Add(-1) == 0 {
			l.mu.Lock()
			l.idle.Broadcast()
			l.mu.Unlock()
		}
	}()
}

// claim takes the next chunk, reporting false when none is left or a
// worker has panicked.
func (l *fanOut) claim() (lo, hi int64, ok bool) {
	for !l.stop.Load() {
		lo = l.next.Load()
		left := l.n - lo
		if left <= 0 {
			break
		}
		hi = lo + max(1, left/int64(l.workers*chunksPerWorker))
		if l.next.CompareAndSwap(lo, hi) {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// work runs chunks as worker until none can be claimed. A helper whose
// first claim leaves iterations unclaimed starts the next helper.
func (l *fanOut) work(worker int) {
	defer func() {
		if r := recover(); r != nil {
			l.stop.Store(true)
			l.mu.Lock()
			if l.fault == nil {
				l.fault = r
			}
			l.mu.Unlock()
		}
	}()
	first := worker != 0
	for {
		lo, hi, ok := l.claim()
		if !ok {
			return
		}
		if first {
			first = false
			if l.engaged.CompareAndSwap(false, true) {
				fanOutStats.engaged.Add(1)
			}
			if hi < l.n {
				l.start(worker + 1)
			}
		}
		for i := lo; i < hi && !l.stop.Load(); i++ {
			l.fn(worker, int(i))
		}
	}
}
