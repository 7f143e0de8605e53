package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"incgraph"
	"incgraph/internal/wire"
)

// sample is one completed op: its class, when it started (relative to the
// measurement epoch; negative during warmup), how long it took, and how
// it ended. A shed is an explicit "err overloaded" reply — the daemon
// keeping its degradation contract, not a failure. err is anything else
// that isn't "ok". A hang (no reply within the op budget) is recorded
// separately: it is the one outcome the contract forbids outright.
type sample struct {
	class string
	at    time.Duration
	dur   time.Duration
	shed  bool
	err   bool
}

// admittedCommit is one acked commit: the post-commit generation from the
// "ok applied N gen=G" reply and the batch it covered. Generations are
// strictly monotone across commits (they serialize), so sorting by gen
// recovers the daemon's apply order for the parity replay.
type admittedCommit struct {
	gen   uint64
	batch incgraph.Batch
}

// worker is one load-generating connection.
type worker struct {
	id       int
	sc       *Scenario
	env      *runEnv
	opBudget time.Duration
	epoch    time.Time // measurement start (end of warmup)

	c   *wire.Client
	rng *rand.Rand

	nextID int64             // private fresh-node allocator
	own    []incgraph.Update // own committed inserts, eligible for delete

	samples    []sample
	admitted   []admittedCommit
	hangs      int
	reconnects int  // fault-scenario redials after a transport error
	dead       bool // connection lost (shed at accept, cut, transport error)
}

// Private node-ID ranges: each worker inserts edges between nodes only it
// allocates, so insert-of-existing-edge and delete-of-missing-edge
// rejections cannot happen by construction. Hot-key inserts point fresh
// sources at the shared hot nodes instead.
const (
	idBase   = int64(10_000_000)
	idStride = int64(1 << 20)
	hotKeys  = 8
)

// answerClass is the standing query every scenario exercises and the
// parity check builds from scratch. SCC needs no query configuration, so any
// daemon started with -scc can serve every built-in scenario.
const answerClass = "scc"

func newWorker(id int, env *runEnv, sc *Scenario, seed int64) (*worker, error) {
	conn, err := net.DialTimeout("tcp", env.book.get(), 10*time.Second)
	if err != nil {
		return nil, err
	}
	w := &worker{
		id: id, sc: sc, env: env, opBudget: env.opBudget, epoch: env.epoch,
		c:      wire.NewClient(conn, env.opBudget),
		rng:    rand.New(rand.NewSource(seed)),
		nextID: idBase + int64(id)*idStride,
	}
	return w, nil
}

// run executes the scenario mix until stop closes, then hangs up.
func (w *worker) run(stop <-chan struct{}) {
	defer func() { w.c.Close() }()
	var ops []string
	var weights []int
	total := 0
	for _, op := range []string{"query", "answer", "commit"} { // stable order
		if n := w.sc.Mix[op]; n > 0 {
			ops = append(ops, op)
			weights = append(weights, n)
			total += n
		}
	}
	for {
		select {
		case <-stop:
			w.c.Send("quit\n")
			return
		default:
		}
		// The failover driver pauses traffic while it drains the standby
		// and switches the shared address; wait it out, then continue.
		if w.env.paused.Load() {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		pick := w.rng.Intn(total)
		op := ops[len(ops)-1]
		for i, we := range weights {
			if pick -= we; pick < 0 {
				op = ops[i]
				break
			}
		}
		start := time.Now()
		shed, err := w.op(op)
		s := sample{class: op, at: start.Sub(w.epoch), dur: time.Since(start), shed: shed}
		if err != nil {
			if isHang(err) {
				w.hangs++
				s.err = true
				w.samples = append(w.samples, s)
				w.dead = true
				return // a hang is a contract violation even mid-failover
			}
			if w.env.faulty {
				// Fault scenarios kill the primary under us: a transport
				// error is the drill working, not a violation. Drop the op
				// (nothing was acked), redial the current address, go on.
				w.reconnects++
				if !w.reconnect(stop) {
					w.dead = true
					return
				}
				continue
			}
			s.err = true
			w.samples = append(w.samples, s)
			w.dead = true
			return // the connection state is unknown; stop rather than skew
		}
		w.samples = append(w.samples, s)
		if w.env.soak != nil {
			w.env.soak.record(s)
		}
		if w.sc.Think > 0 {
			select {
			case <-stop:
				w.c.Send("quit\n")
				return
			case <-time.After(time.Duration(w.sc.Think)):
			}
		}
	}
}

// reconnect redials the shared address (which the failover driver may
// have just swapped to the promoted standby) with capped backoff until
// it succeeds or the run stops.
func (w *worker) reconnect(stop <-chan struct{}) bool {
	w.c.Close()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-stop:
			return false
		default:
		}
		conn, err := net.DialTimeout("tcp", w.env.book.get(), 2*time.Second)
		if err == nil {
			w.c = wire.NewClient(conn, w.opBudget)
			return true
		}
		select {
		case <-stop:
			return false
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// isHang reports a reply that never arrived within the op budget.
func isHang(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// op runs one operation of the given class. It returns shed=true when the
// daemon refused it with an explicit overload or disk reply (the batch, if
// any, was aborted cleanly), and err for hangs, transport failures, and
// other error replies.
func (w *worker) op(op string) (shed bool, err error) {
	switch op {
	case "query":
		_, err = w.c.Query(answerClass)
	case "answer":
		_, _, err = w.c.Answer(answerClass)
	case "commit":
		return w.commit()
	default:
		return false, fmt.Errorf("unknown op %q", op)
	}
	if wire.Retryable(err) {
		return true, nil
	}
	return false, err
}

// commit stages one batch and commits it, retrying a shed commit (the
// daemon keeps the staged batch) a few times before aborting. The acked
// batch and its generation are kept for the parity replay.
func (w *worker) commit() (shed bool, err error) {
	batch := w.makeBatch()
	if err := w.c.Stage(batch); err != nil {
		return false, err
	}
	for attempt := 0; ; attempt++ {
		ack, err := w.c.Commit()
		switch {
		case err == nil:
			w.admitted = append(w.admitted, admittedCommit{gen: ack.Gen, batch: batch})
			for _, u := range batch {
				if u.Op == incgraph.OpInsert {
					w.own = append(w.own, u)
				}
			}
			return false, nil
		case !wire.Retryable(err):
			return false, err
		case attempt < 2:
			time.Sleep(100 * time.Millisecond) // the reply's retry hint
		default:
			// Still overloaded: abort so the staged batch doesn't leak
			// into a later unrelated commit.
			_, err := w.c.Abort()
			return err == nil, err
		}
	}
}

// makeBatch builds one batch from the worker's private ID range: fresh
// insertions (aimed at shared hot keys per the scenario's hotspot
// fraction), plus deletions of its own previously committed inserts.
func (w *worker) makeBatch() incgraph.Batch {
	b := make(incgraph.Batch, 0, w.sc.Batch)
	for i := 0; i < w.sc.Batch; i++ {
		if len(w.own) > 16 && w.rng.Float64() < 0.2 {
			j := w.rng.Intn(len(w.own))
			u := w.own[j]
			w.own = append(w.own[:j], w.own[j+1:]...)
			b = append(b, incgraph.Del(u.From, u.To))
			continue
		}
		from := w.fresh()
		to := w.fresh()
		if w.rng.Float64() < w.sc.Hotspot {
			to = incgraph.NodeID(idBase - 1 - int64(w.rng.Intn(hotKeys)))
		}
		b = append(b, incgraph.InsNew(from, to, "lg", "lg"))
	}
	return b
}

func (w *worker) fresh() incgraph.NodeID {
	id := w.nextID
	w.nextID++
	return incgraph.NodeID(id)
}

// slowClient trickles one byte at a time without ever completing a line,
// and reports how long the server took to cut it (0 if never cut before
// stop closed). A reader goroutine detects the cut promptly — the write
// side can lag a close by a buffered write or two.
func slowClient(addr string, stop <-chan struct{}) (cut time.Duration, err error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		buf := make([]byte, 256)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-closed:
			return time.Since(start), nil
		case <-stop:
			return 0, nil
		case <-tick.C:
			conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			conn.Write([]byte("x")) // errors surface via the reader
		}
	}
}
