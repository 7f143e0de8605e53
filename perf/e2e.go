package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incgraph"
	"incgraph/internal/graph"
)

// run is one benchmark run of one workload: the generated inputs and the
// scratch directory the daemon's stores live in.
type run struct {
	ctx     context.Context
	w       *workload
	seed    int64
	seconds float64
	// small marks a smoke-test run: a twentieth of the cycle, one timed cycle,
	// and none of the guards that need a full-size run (timed commits,
	// non-zero ΔO).
	small bool
	// bin is the incgraphd binary; dir the run's scratch directory.
	bin, dir string

	g *graph.Graph
	q queries
	s *stream
	// atSeed and atEnd are, per standing class, the answers computed from
	// scratch on the seed graph — what the daemon must serve after the
	// timed cycles — and on seed graph ⊕ S — what it must serve after the
	// tail and again after a crash.
	atSeed, atEnd map[string][]byte
	// genTime is the generator's time: graph, queries, stream, and the
	// expected answers.
	genTime time.Duration

	// attempted and failed count operations over the whole run; problems
	// say what failed and which validity guards tripped.
	attempted, failed int
	problems          []string
}

func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// prepare generates the run's inputs from the seed and writes the files
// the daemon is started on.
func (r *run) prepare() error {
	start := time.Now()
	var err error
	if r.g, err = r.w.graph(); err != nil {
		return err
	}
	// The daemon's setting: engine workers on all cores.
	r.g.SetParallelism(0)
	if r.q, err = r.w.makeQueries(r.g); err != nil {
		return err
	}
	pass := r.w.pass
	if r.small {
		pass /= 20
	}
	if r.s, err = r.w.makeStream(r.g, r.seed, pass); err != nil {
		return err
	}
	r.atSeed, r.atEnd = make(map[string][]byte), make(map[string][]byte)
	for _, class := range r.w.classes {
		if r.atSeed[class], err = r.q.answer(class, r.g); err != nil {
			return err
		}
		if r.atEnd[class], err = r.q.answer(class, r.s.final); err != nil {
			return err
		}
		if len(r.atSeed[class]) == 0 || len(r.atEnd[class]) == 0 {
			r.fail(1, "guard: standing %s query has an empty answer", class)
		}
	}
	r.genTime = time.Since(start)
	if err := incgraph.WriteSnapshotFile(r.snapPath(), r.g); err != nil {
		return err
	}
	if r.w.has("iso") {
		var buf bytes.Buffer
		if err := graph.Write(&buf, r.q.iso.Graph()); err != nil {
			return err
		}
		if err := os.WriteFile(r.isoPath(), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) snapPath() string { return filepath.Join(r.dir, "seed.snap") }
func (r *run) isoPath() string  { return filepath.Join(r.dir, "pattern.txt") }

// daemonArgs is the daemon's command line on store: the stated flush
// policy (see README.md) and default admission limits on every workload.
func (r *run) daemonArgs(store string) []string {
	args := []string{"-store", store, "-graph", r.snapPath(), "-fsync", "none", "-checkpoint-bytes", "0"}
	for _, class := range r.w.classes {
		switch class {
		case "kws":
			args = append(args, "-kws", strings.Join(r.q.kws.Keywords, ","), "-bound", fmt.Sprint(r.q.kws.Bound))
		case "rpq":
			args = append(args, "-rpq", r.q.rpq.String())
		case "iso":
			args = append(args, "-iso", r.isoPath())
		case "scc":
			args = append(args, "-scc")
		}
	}
	return args
}

// e2eOut is what the end-to-end half of a run measured.
type e2eOut struct {
	// setups and recoveries are in seconds of the reference machine (see
	// pace): each sample divided by the machine's slowdown while it was
	// taken.
	setups, recoveries []float64
	window             time.Duration
	// cycles are the timed cycles in order; answers every "answer CLASS"
	// round trip of the window.
	cycles    []cycleOut
	answers   []time.Duration
	rssMB     float64
	shedFrac  float64
	daemonCPU time.Duration
	clientCPU time.Duration
}

// cycleOut is one timed cycle.
type cycleOut struct {
	// slowdown is the machine's slowdown over the cycle.
	slowdown float64
	commits  []commitTimes
	// reads are the "query CLASS" round trips: the writer's own, one after
	// every commit but the answers, or on a reader workload the second
	// connection's during this cycle.
	reads []time.Duration
}

// A run restarts the crashed daemon minRecoveries times, and again while
// the restarts have taken less than recoveryBudget together: a restart of
// 0.2 s needs more samples than one of 0.8 s for as steady a median.
const (
	minRecoveries  = 3
	recoveryBudget = 2 * time.Second
)

// minTimedCommits is the fewest timed commits a run may report on: below
// it a p99 has fewer than ten samples beyond it.
const minTimedCommits = 1000

// The reads. After every commit the writer issues one read on its own
// connection, the standing classes in turn: "query CLASS", and every
// answerEvery-th time (11, so that every class has its turn) the full
// "answer CLASS". Nothing else is in flight, so this is what reading your
// own write costs: the round trip plus whatever the read path has to redo
// after a commit.
//
// A reader workload adds a second connection that reads while the writer
// commits: bursts of readBurst reads back to back (the same mix) with a
// pause between bursts. The first read of a burst finds the apply lock
// held as often as it is held; the rest follow a read that has just been
// served, while the lock is free. So at most one read in readBurst waits
// for a commit: the median is the read path's own cost and the tail the
// wait for a commit. With one read per pause the median sits on the edge
// between the two and flips from run to run.
const (
	answerEvery = 11
	readBurst   = 8
	readerPause = 200 * time.Microsecond
)

// writer drives the writing connection, closed loop.
type writer struct {
	c    *client
	pace *pace
	// classes are the classes to read in turn after every commit; none on
	// a reader workload, whose reads are the second connection's.
	classes []string
	// answers and replies record the timed cycles' answer round trips and
	// commit replies.
	answers []time.Duration
	replies []string
}

// warm commits seg without reading or recording.
func (wr *writer) warm(seg segment) error {
	for i, lines := range seg.lines {
		wr.pace.tick()
		if _, _, err := wr.c.commit(lines, len(seg.batches[i])); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return nil
}

// cycle commits seg once, a read after every commit, and records both.
func (wr *writer) cycle(seg segment) (out cycleOut, err error) {
	mark := wr.pace.mark()
	wr.pace.slice()
	defer func() { out.slowdown = wr.pace.slowdown(mark, wr.pace.mark()) }()
	for i, lines := range seg.lines {
		wr.pace.tick()
		ct, reply, err := wr.c.commit(lines, len(seg.batches[i]))
		if err != nil {
			return out, fmt.Errorf("batch %d: %w", i, err)
		}
		out.commits = append(out.commits, ct)
		wr.replies = append(wr.replies, reply)
		if len(wr.classes) == 0 {
			continue
		}
		answer := i%answerEvery == 0
		took, err := wr.c.read(wr.classes[i%len(wr.classes)], answer)
		if err != nil {
			return out, fmt.Errorf("after batch %d: %w", i, err)
		}
		if answer {
			wr.answers = append(wr.answers, took)
		} else {
			out.reads = append(out.reads, took)
		}
	}
	return out, nil
}

// reader is the second connection of a reader workload: bursts of reads
// until done is set.
type reader struct {
	c       *client
	classes []string
	done    atomic.Bool
	// cycle is the timed cycle the writer is in; reads[i] was made during
	// cycle cycles[i].
	cycle   atomic.Int32
	reads   []time.Duration
	cycles  []int32
	answers []time.Duration
}

func (rd *reader) loop() error {
	for op := 0; !rd.done.Load(); op++ {
		if op%readBurst == 0 {
			time.Sleep(readerPause)
		}
		answer := op%answerEvery == 0
		took, err := rd.c.read(rd.classes[op%len(rd.classes)], answer)
		if err != nil {
			return err
		}
		if answer {
			rd.answers = append(rd.answers, took)
		} else {
			rd.reads, rd.cycles = append(rd.reads, took), append(rd.cycles, rd.cycle.Load())
		}
	}
	return nil
}

// checkAnswers byte-compares the daemon's answers with the from-scratch
// build want; when says at which point of the run.
func (r *run) checkAnswers(addr, when string, want map[string][]byte) {
	c, err := dial(addr)
	if err != nil {
		r.attempted += len(r.w.classes)
		r.fail(len(r.w.classes), "%s: %v", when, err)
		return
	}
	defer c.close()
	for _, class := range r.w.classes {
		r.attempted++
		got, err := c.answer(class)
		if err != nil {
			r.fail(1, "%s: answer %s: %v", when, class, err)
		} else if !bytes.Equal(got, want[class]) {
			r.fail(1, "%s: answer %s differs from the from-scratch build (%d vs %d bytes)", when, class, len(got), len(want[class]))
		}
	}
}

// endToEnd starts the daemon as a separate process on the seed snapshot,
// drives the stream through it over loopback TCP, checks what it serves,
// then crashes and restarts it. It sets up `setups` times (fresh store
// each; the last one goes on into the window) and recovers `recoveries`
// times (every restart loads the same checkpoint and replays the same
// WAL, the tail).
func (r *run) endToEnd(setups, recoveries int) (*e2eOut, error) {
	out := &e2eOut{}
	// The load generator runs on one P: its connections are mostly waiting,
	// and with fewer threads competing for the two cores the daemon's
	// numbers repeat more closely from run to run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pace := &pace{}
	wr := &writer{pace: pace}
	if !r.w.reader {
		wr.classes = r.w.classes
	}
	logPath := filepath.Join(r.dir, "daemon.log")
	var d *daemon
	var store string
	closeWriter := func() {
		if wr.c != nil {
			wr.c.close()
			wr.c = nil
		}
	}
	defer func() {
		closeWriter()
		if d != nil {
			d.kill()
		}
	}()

	// Set-up: exec → first ok from health, plus the warm-up batches.
	for i := 0; i < setups; i++ {
		store = filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
		mark := pace.mark()
		start := time.Now()
		err := pace.while(func() (err error) {
			d, err = startDaemon(r.ctx, r.bin, r.daemonArgs(store), logPath)
			return err
		})
		if err != nil {
			return nil, err
		}
		if wr.c, err = dial(d.addr); err != nil {
			return nil, err
		}
		if err := wr.warm(r.s.warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		took := time.Since(start)
		out.setups = append(out.setups, took.Seconds()/pace.slowdown(mark, pace.mark()))
		if i < setups-1 {
			closeWriter()
			d.kill()
			d = nil
			if err := os.RemoveAll(store); err != nil {
				return nil, err
			}
		}
	}

	// The timed window: whole cycles until the time is up.
	var rd *reader
	var readerErr error
	var readerWG sync.WaitGroup
	if r.w.reader {
		c, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		rd = &reader{c: c, classes: r.w.classes}
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			readerErr = rd.loop()
		}()
	}
	var writerErr error
	cpu0, self0 := d.cpuTime(), selfCPU()
	start := time.Now()
	for writerErr == nil && (len(out.cycles) == 0 || time.Since(start).Seconds() < r.seconds && !r.small) {
		if rd != nil {
			rd.cycle.Store(int32(len(out.cycles)))
		}
		var cycle cycleOut
		cycle, writerErr = wr.cycle(r.s.cycle)
		out.cycles = append(out.cycles, cycle)
	}
	out.window = time.Since(start)
	out.daemonCPU, out.clientCPU = d.cpuTime()-cpu0, selfCPU()-self0
	out.answers = wr.answers
	timed, acked := len(out.cycles)*len(r.s.cycle.batches), len(wr.replies)
	if rd != nil {
		rd.done.Store(true)
		readerWG.Wait()
		for i, took := range rd.reads {
			cycle := &out.cycles[rd.cycles[i]]
			cycle.reads = append(cycle.reads, took)
		}
		out.answers = append(out.answers, rd.answers...)
	}
	r.attempted += timed + len(out.answers)
	for _, cycle := range out.cycles {
		r.attempted += len(cycle.reads)
	}
	// A failed operation ends the stream: it and every batch behind it in
	// the cycle are missing.
	if writerErr != nil {
		r.fail(timed-acked, "writer: %v", writerErr)
	}
	if readerErr != nil {
		r.attempted++
		r.fail(1, "reader: %v", readerErr)
	}
	for class, n := range deltaSizes(wr.replies) {
		if n == 0 && !r.small {
			r.fail(1, "guard: the %s engine saw zero ΔO over the stream", class)
		}
	}
	if acked < minTimedCommits && !r.small {
		r.fail(1, "guard: %d timed commits, need %d", acked, minTimedCommits)
	}

	// Sheds, memory.
	stat, err := ask(d.addr, "stat")
	if err != nil {
		return nil, err
	}
	st := fields(stat)
	var shed, admitted uint64
	for _, key := range []string{"conns_shed", "staged_shed", "commit_shed", "commit_timeouts", "commit_cluster_shed", "read_shed", "read_timeouts"} {
		n, err := fieldUint(st, key)
		if err != nil {
			return nil, fmt.Errorf("stat: %w", err)
		}
		shed += n
	}
	for _, key := range []string{"commit_admitted", "read_admitted"} {
		n, err := fieldUint(st, key)
		if err != nil {
			return nil, fmt.Errorf("stat: %w", err)
		}
		admitted += n
	}
	out.shedFrac = float64(shed) / float64(shed+admitted)
	if shed > 0 {
		r.fail(int(shed), "guard: the daemon shed %d operations", shed)
	}
	if out.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if writerErr != nil {
		return out, nil
	}
	r.checkAnswers(d.addr, "after the window", r.atSeed)

	// Crash and recover. A checkpoint folds the cycles into the snapshot,
	// so that a restart costs the same however long the window was: load
	// the snapshot, build the engines, replay the tail — one pass — through
	// them.
	if _, err := ask(d.addr, "checkpoint"); err != nil {
		return nil, err
	}
	if err := wr.warm(r.s.tail); err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	r.checkAnswers(d.addr, "after the tail", r.atEnd)
	closeWriter()
	var recovering time.Duration
	for i := 0; i < recoveries && (i < minRecoveries || recovering < recoveryBudget); i++ {
		d.kill()
		d = nil
		mark := pace.mark()
		start := time.Now()
		err := pace.while(func() (err error) {
			d, err = startDaemon(r.ctx, r.bin, r.daemonArgs(store), logPath)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		took := time.Since(start)
		recovering += took
		out.recoveries = append(out.recoveries, took.Seconds()/pace.slowdown(mark, pace.mark()))
	}
	health, err := ask(d.addr, "health")
	if err != nil {
		return nil, err
	}
	r.attempted++
	tail := uint64(len(r.s.tail.batches))
	if seq, err := fieldUint(fields(health), "walseq"); err != nil || seq != tail {
		r.fail(1, "after recovery: the WAL holds %d commits, %d were acknowledged since the checkpoint (%v)", seq, tail, err)
	}
	r.checkAnswers(d.addr, "after recovery", r.atEnd)
	return out, nil
}
