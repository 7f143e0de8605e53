package graph

// Tests for the concurrency layer: the worker-keyed scratch pool under
// concurrent and nested traversals, sorted reads shared straight after
// mutations, and the ParallelFor kernel.
// Run with -race to make the concurrent cases meaningful.

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentTraversals hammers one read-shared graph with every
// traversal kernel from many goroutines and checks each result against
// the sequential answer: concurrent traversals must neither corrupt each
// other's visited state nor disagree with a lone run.
func TestConcurrentTraversals(t *testing.T) {
	g := warmGraph(t, 800)

	bfsCount := func(src NodeID) int {
		n := 0
		g.BFSFrom([]NodeID{src}, func(NodeID, int) bool { n++; return true })
		return n
	}
	hoodCount := func(src NodeID) int {
		n := 0
		g.ForEachWithin([]NodeID{src}, 3, func(NodeID, int) bool { n++; return true })
		return n
	}
	type want struct {
		src          NodeID
		bfs, hood    int
		reaches      bool
		shortestDist int
	}
	wants := make([]want, 64)
	for i := range wants {
		src := NodeID(i * 12)
		wants[i] = want{
			src:          src,
			bfs:          bfsCount(src),
			hood:         hoodCount(src),
			reaches:      g.Reaches(src, 799),
			shortestDist: g.ShortestDist(0, src),
		}
	}

	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				w := wants[(worker*20+rep*7)%len(wants)]
				if got := bfsCount(w.src); got != w.bfs {
					t.Errorf("concurrent BFSFrom(%d) reached %d nodes, want %d", w.src, got, w.bfs)
				}
				if got := hoodCount(w.src); got != w.hood {
					t.Errorf("concurrent ForEachWithin(%d) reached %d nodes, want %d", w.src, got, w.hood)
				}
				if got := g.Reaches(w.src, 799); got != w.reaches {
					t.Errorf("concurrent Reaches(%d,799) = %v, want %v", w.src, got, w.reaches)
				}
				if got := g.ShortestDist(0, w.src); got != w.shortestDist {
					t.Errorf("concurrent ShortestDist(0,%d) = %d, want %d", w.src, got, w.shortestDist)
				}
			}
		}(worker)
	}
	wg.Wait()
}

// TestConcurrentSortedReads mutates a degree-64 hub and the label index,
// then at once, with no preparation step, reads the sorted adjacency and
// the label index from 8 goroutines. Under -race, a read that wrote
// anything back (a lazily rebuilt cache) would be flagged.
func TestConcurrentSortedReads(t *testing.T) {
	g := New()
	hub := NodeID(0)
	g.AddNode(hub, "hub")
	for i := 64; i >= 1; i-- {
		g.AddNode(NodeID(i), "leaf")
		g.AddEdge(hub, NodeID(i))
	}
	for i := 1; i <= 4; i++ {
		g.DeleteEdge(hub, NodeID(i))
		g.AddNode(NodeID(i), "spare")
	}

	var want []NodeID // the hub's successors and the leaves alike
	for i := NodeID(5); i <= 64; i++ {
		want = append(want, i)
	}
	leaf, _ := LabelIDOf("leaf")
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				if succ := g.SuccessorsSorted(hub); !slices.Equal(succ, want) {
					t.Errorf("SuccessorsSorted(hub) = %v, want %v", succ, want)
					return
				}
				var leaves []NodeID
				g.NodesWithLabelID(leaf, func(v NodeID) bool {
					leaves = append(leaves, v)
					return true
				})
				if !slices.Equal(leaves, want) {
					t.Errorf("NodesWithLabelID(leaf) = %v, want %v", leaves, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestNestedTraversalPooled pins the satellite fix: a kernel invoked from
// another kernel's callback draws its scratch from the pool instead of
// allocating a fresh visited array per inner call. The whole nested sweep
// (100 inner probes) must cost at most a handful of allocations — the old
// fallback paid one full buffer per probe.
func TestNestedTraversalPooled(t *testing.T) {
	g := warmGraph(t, 500)
	sources := []NodeID{0}
	reached := 0
	nested := func() {
		reached = 0
		g.BFSFrom(sources, func(v NodeID, _ int) bool {
			if v%5 == 0 && g.Reaches(v, 499) { // nested kernel per callback
				reached++
			}
			return true
		})
	}
	nested() // warm both pool tiers
	nested()
	if reached == 0 {
		t.Fatal("nested probes found nothing")
	}
	allocs := testing.AllocsPerRun(20, nested)
	// ~100 inner probes per run: the pre-pool fallback allocated one
	// visited array (and queue) per probe. Allow a little slack for a GC
	// clearing the overflow pool mid-measurement.
	if allocs > 10 {
		t.Fatalf("nested traversal: %.1f allocs/op, want ~0 (pool miss per inner call?)", allocs)
	}
}

// fanOutDelta runs f and returns how the process-wide counters moved.
func fanOutDelta(f func()) FanOutStats {
	before := ReadFanOutStats()
	f()
	return ReadFanOutStats().Sub(before)
}

// lazyFanOut switches EagerFanOut off for the rest of the test, whatever
// the build tag or an enclosing test set.
func lazyFanOut(t *testing.T) {
	t.Helper()
	prev := eagerFanOut.Swap(false)
	t.Cleanup(func() { eagerFanOut.Store(prev) })
}

// TestParallelForShortLoopWaitsForNobody: a loop that is over before its
// helper gets to run is a plain loop — every iteration runs as worker 0 on
// the calling goroutine, in order; one helper was offered the work, found
// none, and nobody waited for it. One processor makes "before the helper
// gets to run" certain: the helper cannot start until the caller yields,
// and the loop never does. Nor may the runtime make it: the loop allocates
// nothing, so it cannot start a GC cycle, none is under way when it begins,
// and it begins on a fresh time slice, so it is not preempted for running
// long unless its thread stalls for a whole slice in a loop of microseconds.
func TestParallelForShortLoopWaitsForNobody(t *testing.T) {
	lazyFanOut(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	order := make([]int, 0, 1000) // appended without synchronization: one goroutine or a race report
	runtime.GC()
	runtime.Gosched()
	d := fanOutDelta(func() {
		ParallelFor(8, 1000, func(worker, i int) {
			if worker != 0 {
				t.Errorf("iteration %d ran as worker %d", i, worker)
			}
			order = append(order, i)
		})
	})
	if d != (FanOutStats{Loops: 1, Helpers: 1}) {
		t.Fatalf("counters moved by %+v, want one loop, one helper, not engaged", d)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("iteration %d ran at position %d", got, i)
		}
	}
	if len(order) != 1000 {
		t.Fatalf("%d iterations ran, want 1000", len(order))
	}
}

// TestParallelForLongLoopWidens: in a loop of long iterations every
// arriving helper finds work left and starts the next, so the loop becomes
// exactly min(workers, n) wide — and no worker id is ever held by two
// goroutines at once.
func TestParallelForLongLoopWidens(t *testing.T) {
	lazyFanOut(t)
	for _, tc := range []struct{ workers, n int }{{4, 40}, {4, 5}, {4, 4}, {8, 3}, {2, 2}} {
		width := min(tc.workers, tc.n)
		live := make([]atomic.Bool, width)
		hits := make([]atomic.Int32, tc.n)
		d := fanOutDelta(func() {
			ParallelFor(tc.workers, tc.n, func(worker, i int) {
				if worker < 0 || worker >= width {
					t.Errorf("workers=%d n=%d: worker id %d, want ids in [0,%d)", tc.workers, tc.n, worker, width)
					return
				}
				if !live[worker].CompareAndSwap(false, true) {
					t.Errorf("worker id %d live twice", worker)
				}
				hits[i].Add(1)
				time.Sleep(2 * time.Millisecond)
				live[worker].Store(false)
			})
		})
		if want := (FanOutStats{Loops: 1, Engaged: 1, Helpers: uint64(width - 1)}); d != want {
			t.Errorf("workers=%d n=%d: counters moved by %+v, want %+v", tc.workers, tc.n, d, want)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Errorf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, h)
			}
		}
	}
}

// TestParallelForEagerIsConcurrent: with EagerFanOut the loop really is
// min(workers, n) wide from its first iteration — every iteration below
// blocks until that many are inside the loop at once.
func TestParallelForEagerIsConcurrent(t *testing.T) {
	defer EagerFanOut()()
	for _, tc := range []struct{ workers, n int }{{4, 2}, {4, 4}, {3, 9}} {
		width := min(tc.workers, tc.n)
		var inside sync.WaitGroup
		inside.Add(width)
		var once [16]sync.Once
		d := fanOutDelta(func() {
			ParallelFor(tc.workers, tc.n, func(worker, i int) {
				once[worker].Do(func() {
					inside.Done()
					inside.Wait()
				})
			})
		})
		if want := (FanOutStats{Loops: 1, Engaged: 1, Helpers: uint64(width - 1)}); d != want {
			t.Errorf("workers=%d n=%d: counters moved by %+v, want %+v", tc.workers, tc.n, d, want)
		}
	}
}

// TestParallelForCoverage: every index runs exactly once, under a worker
// id in range, whether helpers arrive in their own time, are all there
// from the start, or cannot run before the loop is over.
func TestParallelForCoverage(t *testing.T) {
	lazyFanOut(t)
	const workers = 4
	modes := map[string]func() (restore func()){
		"default": func() func() { return func() {} },
		"eager":   EagerFanOut,
		"oneproc": func() func() { prev := runtime.GOMAXPROCS(1); return func() { runtime.GOMAXPROCS(prev) } },
	}
	for name, enter := range modes {
		restore := enter()
		for _, n := range []int{0, 1, workers - 1, workers + 1, 10000} {
			hits := make([]atomic.Int32, n)
			ParallelFor(workers, n, func(worker, i int) {
				if worker < 0 || worker >= min(workers, n) {
					t.Errorf("%s n=%d: worker id %d out of range", name, n, worker)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("%s n=%d: index %d ran %d times, want 1", name, n, i, h)
				}
			}
		}
		restore()
	}
}

// TestParallelForPanic: a panic in an iteration — of a loop with no
// helpers, of the caller's in a wide loop, of a helper's — reaches the
// caller with its value, and by then every helper has stopped: no
// iteration is running and none starts afterwards.
func TestParallelForPanic(t *testing.T) {
	defer EagerFanOut()() // the helpers are in the loop when the panic comes
	for _, tc := range []struct {
		name    string
		workers int
		guilty  func(worker int) bool
	}{
		{"alone", 1, func(w int) bool { return true }},
		{"caller", 4, func(w int) bool { return w == 0 }},
		{"helper", 4, func(w int) bool { return w != 0 }},
	} {
		var running, ran atomic.Int32
		got := func() (r any) {
			defer func() { r = recover() }()
			ParallelFor(tc.workers, 4000, func(worker, i int) {
				running.Add(1)
				defer running.Add(-1)
				ran.Add(1)
				time.Sleep(10 * time.Microsecond)
				if tc.guilty(worker) {
					panic("boom")
				}
			})
			return nil
		}()
		if got != "boom" {
			t.Fatalf("%s: recovered %v, want the iteration's panic value", tc.name, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%s: %d iterations still running after ParallelFor returned", tc.name, n)
		}
		before := ran.Load()
		time.Sleep(2 * time.Millisecond)
		if after := ran.Load(); after != before {
			t.Fatalf("%s: %d iterations started after ParallelFor returned", tc.name, after-before)
		}
		if before >= 4000 {
			t.Fatalf("%s: all 4000 iterations ran; the panic did not stop the claiming", tc.name)
		}
	}
}

// TestParallelForNested: a ParallelFor inside an iteration — on the caller
// and on helpers alike — completes; every level's caller runs iterations
// itself, so no level waits on a worker that cannot start.
func TestParallelForNested(t *testing.T) {
	lazyFanOut(t)
	for _, eager := range []bool{false, true} {
		restore := func() {}
		if eager {
			restore = EagerFanOut()
		}
		var total atomic.Int64
		ParallelFor(4, 16, func(_, i int) {
			ParallelFor(4, 50, func(_, j int) {
				ParallelFor(2, 3, func(_, k int) { total.Add(1) })
			})
		})
		restore()
		if got := total.Load(); got != 16*50*3 {
			t.Fatalf("eager=%v: nested loops ran %d innermost iterations, want %d", eager, got, 16*50*3)
		}
	}
}

// TestScratchPoolReuse checks the two-tier pool directly: a traversal
// returns its buffer, the next traversal reuses it (same backing array),
// and concurrent checkouts hand out distinct buffers.
func TestScratchPoolReuse(t *testing.T) {
	g := warmGraph(t, 100)
	s1 := g.acquire()
	g.release(s1)
	s2 := g.acquire()
	if s1 != s2 {
		t.Error("sequential acquire did not reuse the released buffer")
	}
	s3 := g.acquire()
	if s3 == s2 {
		t.Fatal("overlapping acquires returned the same buffer")
	}
	if len(s2.visited) < int(g.slotCeil) || len(s3.visited) < int(g.slotCeil) {
		t.Fatal("acquired buffer not sized to slotCeil")
	}
	g.release(s2)
	g.release(s3)
}

// TestCloneInheritsParallelismAndFlushes checks that clones carry the
// worker budget and that a clone serves concurrent sorted reads as soon as
// it is made.
func TestCloneInheritsParallelismAndFlushes(t *testing.T) {
	g := New()
	g.SetParallelism(3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		g.AddNode(NodeID(i), "l")
	}
	for i := 0; i < 3000; i++ {
		v, w := NodeID(rng.Intn(200)), NodeID(rng.Intn(200))
		if v != w && !g.HasEdge(v, w) {
			g.AddEdge(v, w) // mean degree 15, hubs well above it
		}
	}
	c := g.Clone()
	if got := c.Parallelism(); got != 3 {
		t.Fatalf("clone Parallelism() = %d, want 3", got)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.SuccessorsSorted(NodeID(i))
				_ = c.PredecessorsSorted(NodeID(i))
			}
		}()
	}
	wg.Wait()
}
