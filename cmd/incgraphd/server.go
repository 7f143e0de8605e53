package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"incgraph"
	"incgraph/internal/graph"
	"incgraph/internal/wire"
)

// server multiplexes the line protocol over one Durable. Writers and
// readers do not meet: a commit mutates the graph and the engines under
// commitMu and then publishes an immutable view of the result
// (view.go); query, answer, stat and health load the current view and take
// no lock, so a read never waits for a commit and a commit never waits for
// a render. A commit holds commitMu around the whole Durable.Commit, so
// commits are validated, logged and applied one at a time, in one order.
//
// Lock order, written down here and nowhere else: commitMu is the one server
// lock a commit takes, and the hub's mutex is a leaf under it — Hub.Feed
// takes it under commitMu and calls nothing while holding it, and
// Hub.ServeConn calls the snapshot callback, which takes commitMu, holding no
// lock.
type server struct {
	d *incgraph.Durable
	// ckptBytes auto-checkpoints after a commit grows the WAL past it.
	ckptBytes int64

	// view is the read side (view.go). It also carries the role and the hub
	// handle: a hub feeds every committed batch to attached standbys.
	// classes and classAt are fixed at construction: the attached engines'
	// classes in attach order, and the position of each.
	view      atomic.Pointer[view]
	classes   []string
	classAt   map[string]int
	folding   []atomic.Bool // per class: a fold is under way (view.go)
	viewFolds atomic.Uint64 // chains folded into a new base

	// lim is the overload posture; commitGate/readGate are its admission
	// gates (nil when ungated). See admission.go for the layer contract.
	lim        limits
	commitGate *gate
	readGate   *gate
	// commitMu is the one write lock: it serializes every commit's log and
	// apply steps (applyOptions), the checkpoint verb, promote, shutdown and
	// every other publisher of a view, so views appear in commit order, and
	// the hub's snapshot callback takes it to read the state itself. No
	// read takes it.
	commitMu sync.Mutex

	// feedSeq numbers the standby feed: the count of batches handed to
	// Hub.Feed. It moves under commitMu with the graph, so the hub's snapshot
	// callback reads a (seq, state) pair no committed batch can fall between.
	feedSeq uint64

	// Durable-metadata mirror for stat/health: the store's counters mutate
	// under commitMu, so readers load these mirrors (refreshed by
	// syncDurableMeta after every durable mutation) instead of racing the
	// store.
	walBytes atomic.Int64
	walSeq   atomic.Uint64
	epoch    atomic.Uint64

	// HA standby state (the view's role is roleStandby until promote).
	// tail tracks the feed's liveness for the read path's staleness gate;
	// standby and tailConn are what promote needs to cut the feed and name
	// the new term. primaryAddr is where stale reads redirect.
	standby     *incgraph.ClusterStandby
	tailConn    net.Conn
	tail        atomic.Int32
	primaryAddr string
	// connMu/conns track live connections so shutdown can cut idle
	// readers instead of waiting for clients to hang up; nconns mirrors
	// len(conns) for the accept-time cap and "stat".
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	nconns atomic.Int64
	// Operational counters, exposed by "stat" so operators can see what
	// the logs saw: transient accept failures, and commits that failed
	// for operational reasons (WAL trouble) —
	// batch-validation rejections are client input errors and are only
	// replied to, not counted or logged. The overload counters below track
	// every shed and deadline drop so graceful degradation is observable,
	// not silent.
	acceptErrs   atomic.Uint64
	commitErrs   atomic.Uint64
	connsShed    atomic.Uint64 // connections shed at accept (max-conns)
	stagedShed   atomic.Uint64 // stage commands refused at max-staged
	linesTooLong atomic.Uint64 // oversized protocol lines (replied, then cut)
	idleDrops    atomic.Uint64 // connections cut by the per-line read deadline

	// Disk-degradation state (doc.go "Overload & admission control" has
	// the matrix row). The commit path moves diskState healthy→retrying
	// when a WAL append fails and retries with capped backoff; a
	// persistently failing disk flips the daemon read-only — commits shed
	// with "err disk: degraded; read-only" while reads keep answering from
	// the in-memory state — and a background probe flips it back to
	// healthy the moment the append path works again. Retry and probe
	// tuning are fields, not constants, so drills run in milliseconds.
	diskState      atomic.Int32
	diskRetries    atomic.Uint64 // WAL appends retried after a disk error
	diskROEnters   atomic.Uint64 // transitions into read-only mode
	diskROExits    atomic.Uint64 // probe-healed transitions back to healthy
	diskShed       atomic.Uint64 // commits shed while read-only
	diskProbing    atomic.Bool   // the probe goroutine exists (started lazily, once)
	diskRetryMax   int           // WAL append attempts before going read-only
	diskBackoff    time.Duration // first retry delay (doubles, capped)
	diskProbeEvery time.Duration // read-only recovery probe interval
	diskQuit       chan struct{} // closed at shutdown; stops the probe
}

// maxLineBytes caps one protocol line (the scanner buffer limit). A line
// past it is answered with "err proto: line too long" and the connection
// is cut: the stream cannot be resynchronized mid-line.
const maxLineBytes = 1 << 20

// argless are the commands that take no argument (see internal/wire for
// the protocol and its error categories).
var argless = []string{"abort", "commit", "stat", "health", "promote", "checkpoint", "quit"}

// Serving roles. A standby is read-only until "promote" flips it.
const (
	rolePrimary = "primary"
	roleStandby = "standby"
)

// Disk states, for the degradation contract above.
const (
	diskHealthy int32 = iota
	diskRetrying
	diskReadOnly
)

// diskBackoffCap bounds the doubling retry backoff of logWithRetry.
const diskBackoffCap = 200 * time.Millisecond

// errDiskDegraded marks a commit refused because the disk went
// read-only: nothing was logged or applied, so the staged batch is kept
// and the client may simply retry "commit".
var errDiskDegraded = errors.New("disk degraded")

func diskName(s int32) string {
	switch s {
	case diskRetrying:
		return "retrying"
	case diskReadOnly:
		return "read-only"
	default:
		return "healthy"
	}
}

// Standby tail states, for the read path's staleness gate.
const (
	tailNone     int32 = iota // not a standby
	tailLive                  // feed attached, replica current
	tailDegraded              // primary gone; serving last durable generation
	tailStale                 // replica diverged from a live primary; redirect
)

func tailName(s int32) string {
	switch s {
	case tailLive:
		return "live"
	case tailDegraded:
		return "degraded"
	case tailStale:
		return "stale"
	default:
		return "none"
	}
}

// newServer builds the serving state over a recovered Durable and cuts the
// first view from its engines; the result is a primary without a hub
// (publish changes that).
func newServer(d *incgraph.Durable, ckptBytes int64, lim limits) *server {
	classes := make([]string, len(d.Engines()))
	classAt := make(map[string]int, len(d.Engines()))
	for i, m := range d.Engines() {
		classes[i] = m.Class()
		classAt[m.Class()] = i
	}
	s := &server{d: d, ckptBytes: ckptBytes, classes: classes, classAt: classAt,
		folding:        make([]atomic.Bool, len(d.Engines())),
		lim:            lim,
		commitGate:     newGate(lim.commitSlots, lim.commitQueue, lim.opTimeout),
		readGate:       newGate(lim.readSlots, lim.readQueue, lim.opTimeout),
		conns:          make(map[net.Conn]struct{}),
		diskRetryMax:   3,
		diskBackoff:    5 * time.Millisecond,
		diskProbeEvery: 250 * time.Millisecond,
		diskQuit:       make(chan struct{})}
	s.syncDurableMeta()
	s.view.Store(s.cutView())
	s.publish(false, nil)
	return s
}

// syncDurableMeta refreshes the durable-metadata mirror stat and health
// read. Call after any durable mutation, holding commitMu.
func (s *server) syncDurableMeta() {
	s.walBytes.Store(s.d.WALBytes())
	s.walSeq.Store(s.d.WALSeq())
	s.epoch.Store(s.d.Epoch())
}

// track registers or unregisters a live connection.
func (s *server) track(conn net.Conn, add bool) {
	s.connMu.Lock()
	if add {
		s.conns[conn] = struct{}{}
		s.nconns.Add(1)
	} else if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		s.nconns.Add(-1)
	}
	s.connMu.Unlock()
}

// closeConns cuts every live connection (shutdown path).
func (s *server) closeConns() {
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
}

// serve accepts connections until a signal arrives, then closes the
// listener and the WAL. In-flight connections are cut; every acknowledged
// commit is already on disk, so an abrupt stop is as safe as a crash.
func (s *server) serve(addr string, stop <-chan struct{}) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("listening on %s", ln.Addr())
	done := make(chan struct{})
	go func() {
		<-stop
		close(done)
		ln.Close()
		s.closeConns()
	}()
	var wg sync.WaitGroup
	backoff := 5 * time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-done:
				wg.Wait()
				// The disk probe (not in wg) takes commitMu per tick; stop
				// it before the WAL closes under it.
				close(s.diskQuit)
				// A standby's feed goroutine (not in wg) may be mid-apply;
				// the WAL must not close under it.
				s.commitMu.Lock()
				defer s.commitMu.Unlock()
				log.Printf("shutting down (gen %d, WAL seq %d)", s.d.Generation(), s.d.WALSeq())
				return s.d.Close()
			default:
			}
			// Transient accept failures (ECONNABORTED, EMFILE under a
			// connection burst) must not kill a long-lived daemon: back
			// off and retry; the condition clears as connections close.
			// Counted so "stat" exposes what the log line saw.
			s.acceptErrs.Add(1)
			log.Printf("accept: %v (retrying in %v)", err, backoff)
			select {
			case <-done:
				continue // drain via the shutdown branch above
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		// Accept-time shedding: past the connection cap, answer with an
		// explicit overload error instead of serving (or letting the
		// backlog grow). The check is racy by a handful of connections
		// under a burst — the cap is a defense, not an invariant.
		if s.lim.maxConns > 0 && int(s.nconns.Load()) >= s.lim.maxConns {
			s.connsShed.Add(1)
			go func(c net.Conn) {
				c.SetWriteDeadline(time.Now().Add(2 * time.Second))
				c.Write(wire.AppendError(nil, wire.Overloaded,
					fmt.Sprintf("connection limit %d reached%s", s.lim.maxConns, retryHint)))
				c.Close()
			}(conn)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *server) handle(conn net.Conn) {
	s.track(conn, true)
	defer func() {
		s.track(conn, false)
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	// more reports, after a Scan, whether the scanner already holds another
	// complete line: the next Scan will then return without reading from
	// the connection.
	more := false
	sc.Split(func(data []byte, atEOF bool) (advance int, token []byte, err error) {
		advance, token, err = bufio.ScanLines(data, atEOF)
		more = advance > 0 && bytes.IndexByte(data[advance:], '\n') >= 0
		return advance, token, err
	})
	out := bufio.NewWriter(conn)
	// send writes one reply (none when nil) and flushes, under a write
	// deadline: a client that stops draining its socket is cut at the op
	// timeout instead of holding the handler goroutine (and whatever it has
	// admitted) forever. The deadline is armed once per flush, before the
	// write, which goes to the connection itself when the reply outgrows the
	// buffer. It is left armed afterwards: every write to the connection
	// goes through send, so none runs under a deadline send did not just
	// arm.
	send := func(reply []byte) bool {
		if s.lim.opTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.lim.opTimeout))
		}
		out.Write(reply)
		return out.Flush() == nil
	}
	fail := func(cat wire.Category, format string, args ...any) bool {
		return send(wire.AppendError(out.AvailableBuffer(), cat, fmt.Sprintf(format, args...)))
	}
	// pending is the staged batch. It is one slice for the connection's
	// life: abort and every commit that is not shed empty it in place,
	// since nothing a commit reaches keeps the batch once Durable.Commit
	// returns (the WAL and the hub encode it, the engines read it). Its
	// capacity is at most -max-staged updates, which the connection could
	// hold anyway.
	var pending incgraph.Batch
	for alive := true; alive; {
		if !more {
			// The next Scan reads from the connection: a wait starts.
			//
			// A stage ack is held back while the next line is already here
			// (a burst of stage lines leaves in one write, not one per
			// line); it must not stay held across a wait. Every reply but
			// that ack flushes, so output is pending here only after a held
			// ack followed by lines that produce no reply (blank, comment).
			if out.Buffered() > 0 && !send(nil) {
				return
			}
			// Arm the read deadline once per wait, when it starts: not per
			// line the buffer already holds (their Scans do not read), and
			// not refreshed per byte, so a byte-at-a-time slow-loris client
			// hits it exactly like an idle one.
			if s.lim.idle > 0 {
				conn.SetReadDeadline(time.Now().Add(s.lim.idle))
			}
		}
		if !sc.Scan() {
			break
		}
		// The line is read in place, as bytes: a stage line costs its parse
		// and nothing else (no string, no field slice).
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		name, arg := cutField(line)
		// cmd is only compared, so it stays on the stack: a reply names the
		// command from name, and a read copies arg into the class it reads.
		switch cmd := string(name); {
		case cmd == "+" || cmd == "-":
			u, err := graph.ParseUpdate(line)
			switch {
			case err != nil:
				alive = fail(wire.Proto, "%v", err)
			case s.lim.maxStaged > 0 && len(pending) >= s.lim.maxStaged:
				s.stagedShed.Add(1)
				alive = fail(wire.Staged, "limit %d reached; commit or abort first", s.lim.maxStaged)
			default:
				pending = append(pending, u)
				out.Write(wire.AppendStaged(out.AvailableBuffer(), len(pending)))
				// Held acks never fill the buffer: bufio would then write to
				// the connection itself, outside the write deadline.
				alive = more && out.Available() >= 64 || send(nil)
			}
		case (cmd == "query" || cmd == "answer") && (len(arg) == 0 || bytes.IndexFunc(arg, unicode.IsSpace) >= 0):
			alive = fail(wire.Proto, "usage: %s CLASS", name)
		case len(arg) != 0 && slices.Contains(argless, cmd):
			alive = fail(wire.Proto, "usage: %s", name)
		case cmd == "abort":
			alive = send(wire.AppendAborted(out.AvailableBuffer(), len(pending)))
			pending = pending[:0]
		case cmd == "commit":
			// A shed keeps the staged batch: "retry in 100ms" must mean
			// re-sending "commit", not re-staging everything.
			shed, reply := s.commit(out.AvailableBuffer(), pending)
			if !shed {
				pending = pending[:0]
			}
			alive = send(reply)
		case cmd == "query" || cmd == "answer":
			alive = send(s.read(out.AvailableBuffer(), cmd == "answer", string(arg)))
		case cmd == "stat":
			alive = send(s.stat(out.AvailableBuffer()))
		case cmd == "health":
			alive = send(s.health(out.AvailableBuffer()))
		case cmd == "promote":
			alive = send(s.promote(out.AvailableBuffer()))
		case cmd == "checkpoint":
			// Snapshot writing only reads the graph, which no one mutates
			// without commitMu; readers keep answering from the view while
			// the checkpoint's I/O drains.
			s.commitMu.Lock()
			err := s.d.Checkpoint()
			s.syncDurableMeta()
			epoch := s.epoch.Load()
			s.commitMu.Unlock()
			if err != nil {
				alive = fail(wire.Disk, "checkpoint failed: %v", err)
			} else {
				alive = send(wire.AppendCheckpoint(out.AvailableBuffer(), epoch))
			}
		case cmd == "quit":
			send(wire.AppendBye(out.AvailableBuffer()))
			return
		default:
			alive = fail(wire.Proto, "unknown command %q", name)
		}
	}
	// The scan ended without a clean quit: tell the client why before the
	// deferred close when we can, and count what happened.
	switch err := sc.Err(); {
	case err == nil:
		// EOF, or the connection died mid-reply.
	case errors.Is(err, bufio.ErrTooLong):
		// The stream cannot be resynchronized mid-line, so the connection
		// must die — but with an explicit reply first, not a silent cut.
		s.linesTooLong.Add(1)
		fail(wire.Proto, "line too long; max %d bytes per line", maxLineBytes)
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// Per-line read deadline: idle or slow-loris. The read side is
			// dead but the write side usually is not; say why we hung up.
			s.idleDrops.Add(1)
			fail(wire.Idle, "no complete line in %v", s.lim.idle)
		}
	}
}

// cutField splits a line that starts with a field into that field and the
// rest after the white space that ends it: strings.Fields, one field at a
// time, without allocating.
func cutField(line []byte) (field, rest []byte) {
	i := bytes.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return line, nil
	}
	return line[:i], bytes.TrimLeftFunc(line[i:], unicode.IsSpace)
}

// commit applies one staged batch and appends the reply to b: ΔO per
// class, or why the batch was not applied. The path is gated (bounded
// commits in flight, bounded queue, bounded wait — excess load is shed with
// an explicit overload reply); applyOptions has the rest.
//
// The returned shed is true when the batch was refused by admission
// control or the read-only disk (nothing was applied; the caller keeps it
// staged so a bare retry works).
func (s *server) commit(b []byte, batch incgraph.Batch) (shed bool, reply []byte) {
	if len(batch) == 0 {
		return false, wire.AppendError(b, wire.Staged, "nothing staged")
	}
	v := s.view.Load()
	if v.role == roleStandby {
		return false, wire.AppendError(b, wire.Fenced, "standby is read-only; promote to accept commits")
	}
	// Read-only disk mode sheds before admission: the batch stays staged
	// (a bare "commit" retry works once the probe heals the disk) and the
	// gate's slots stay free for the probe-driven recovery.
	if s.diskState.Load() == diskReadOnly {
		s.diskShed.Add(1)
		return true, wire.AppendError(b, wire.Disk, "degraded; read-only"+retryHint)
	}
	if s.commitGate.enter() != nil {
		return true, wire.AppendError(b, wire.Overloaded, "commit queue full"+retryHint)
	}
	opts, res := s.applyOptions(v, batch)
	// commitMu around the whole validate + log + apply keeps WAL order equal
	// to commit order.
	s.commitMu.Lock()
	sums, err := s.d.Commit(batch, opts)
	s.commitMu.Unlock()
	// The slot goes back before the reply goes out: a client that has read
	// its ack (or its error) may retry at once, and on a full gate that
	// retry must find the capacity this commit held, not race its release.
	s.commitGate.exit()
	switch {
	case errors.Is(err, errDiskDegraded):
		// The append retries were exhausted and the daemon just went
		// read-only. Nothing was logged or applied, so this commit is a
		// shed like the ones the read-only check above refuses: the batch
		// stays staged and the same reply tells the client why.
		s.diskShed.Add(1)
		return true, wire.AppendError(b, wire.Disk, "degraded; read-only"+retryHint)
	case err != nil:
		if !errors.Is(err, incgraph.ErrBadUpdate) {
			s.commitErrs.Add(1)
			log.Printf("commit failed: %v", err)
		}
		return false, wire.AppendError(b, wire.Staged, "commit failed: "+err.Error())
	}
	return false, wire.AppendApplied(b, len(batch), res.gen, s.classes, sums)
}

// commitResult is what one commit's apply hook saw under commitMu: the
// generation the batch produced.
type commitResult struct{ gen uint64 }

// applyOptions builds the hooks of one Durable.Commit of batch, for both
// roles: a primary, and a standby applying a fed batch. A primary's log step
// is the WAL append under
// the disk-degradation retry loop; a standby keeps the Durable's bare append
// (a replica whose disk fails ends its tail, it does not go read-only). The
// apply step applies, publishes the view and — the one place, for both
// roles — feeds the hub, so feed order is commit order. Both steps run under
// commitMu, which the caller holds around the whole Commit.
func (s *server) applyOptions(v *view, batch incgraph.Batch) (incgraph.ApplyOptions, *commitResult) {
	res := new(commitResult)
	var opts incgraph.ApplyOptions
	if v.role == rolePrimary {
		opts.Log = s.logWithRetry
	}
	opts.Exclusive = func(apply func() error) error {
		preGen := s.d.Generation()
		err := apply()
		res.gen = s.d.Generation()
		if err == nil {
			// Before anything that can take time, and before the reply:
			// whoever is told of this commit reads it.
			s.publish(true, nil)
			if v.hub != nil {
				s.feedSeq++
				v.hub.Feed(s.feedSeq, preGen, res.gen, batch)
			}
		}
		if walBytes := s.d.WALBytes(); err == nil && s.ckptBytes > 0 && walBytes > s.ckptBytes {
			// Checkpoint I/O under commitMu only: snapshot writing reads
			// the graph, which no one mutates without commitMu.
			if cerr := s.d.Checkpoint(); cerr != nil {
				log.Printf("auto-checkpoint failed: %v", cerr)
			} else {
				log.Printf("auto-checkpoint at WAL %d bytes (epoch %d)", walBytes, s.d.Epoch())
			}
		}
		s.syncDurableMeta()
		return err
	}
	return opts, res
}

// logWithRetry is the WAL append under the disk-degradation contract:
// a failed append is retried with capped exponential backoff (a wedged
// WAL is first healed by a checkpoint, which starts a fresh log), and
// exhausting the retries flips the daemon into read-only mode and
// returns errDiskDegraded. Nothing is acknowledged unless the append
// truly succeeded — the WAL itself rolls back seq and truncates on
// failure, so "acked ⇒ durable" holds across every retry. The caller
// holds commitMu and has already validated the batch (Durable.Commit
// validates before its Log hook runs), so the append is
// LogPlanned with the caller's generation stamp.
func (s *server) logWithRetry(b incgraph.Batch, gen uint64) error {
	err := s.d.LogPlanned(b, gen)
	if err == nil {
		return nil
	}
	backoff := s.diskBackoff
	for attempt := 1; attempt < s.diskRetryMax; attempt++ {
		s.diskState.CompareAndSwap(diskHealthy, diskRetrying)
		s.diskRetries.Add(1)
		log.Printf("WAL append failed (attempt %d/%d, retrying in %v): %v",
			attempt, s.diskRetryMax, backoff, err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > diskBackoffCap {
			backoff = diskBackoffCap
		}
		if s.d.WALBroken() != nil {
			// A mid-append failure wedges the WAL (its tail is suspect);
			// only a checkpoint — snapshot plus fresh log — clears it.
			// commitMu is held, so the checkpoint cannot race a commit.
			if cerr := s.d.Checkpoint(); cerr != nil {
				err = cerr
				continue
			}
		}
		if err = s.d.LogPlanned(b, gen); err == nil {
			s.diskState.CompareAndSwap(diskRetrying, diskHealthy)
			return nil
		}
	}
	s.syncDurableMeta()
	s.enterReadOnly(err)
	return fmt.Errorf("%w: %v", errDiskDegraded, err)
}

// enterReadOnly flips the daemon into read-only mode and makes sure the
// recovery probe is running. Reads keep answering from the in-memory
// state (it is consistent: failed appends were rolled back, nothing
// unacknowledged was applied); commits shed until the probe heals.
func (s *server) enterReadOnly(cause error) {
	s.diskState.Store(diskReadOnly)
	s.diskROEnters.Add(1)
	log.Printf("disk degraded; entering read-only mode: %v", cause)
	if s.diskProbing.CompareAndSwap(false, true) {
		go s.probeDisk()
	}
}

// probeDisk is the read-only recovery loop: while the daemon is
// read-only it exercises the WAL append path (checkpoint if the WAL is
// wedged, fsync otherwise) once per diskProbeEvery, and the first
// success flips the daemon back to healthy — recovery is automatic, no
// restart and no operator action. The goroutine is started once, on the
// first degradation, and idles between incidents until shutdown.
func (s *server) probeDisk() {
	t := time.NewTicker(s.diskProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.diskQuit:
			return
		case <-t.C:
		}
		if s.diskState.Load() != diskReadOnly {
			continue
		}
		s.commitMu.Lock()
		var err error
		if s.d.WALBroken() != nil {
			err = s.d.Checkpoint()
		} else {
			err = s.d.SyncWAL()
		}
		s.syncDurableMeta()
		s.commitMu.Unlock()
		if err == nil && s.diskState.CompareAndSwap(diskReadOnly, diskHealthy) {
			s.diskROExits.Add(1)
			log.Printf("disk recovered; leaving read-only mode")
		}
	}
}

// read serves "query" (cardinality) and "answer" (full canonical dump) from
// the current view, appending the reply to b: the size published with it,
// and for an answer the view's base rows merged with its chain of ΔO,
// rendered while merging. Nothing here can fail or wait for a commit. Both
// replies name the generation they were served at. The read gate covers
// only this in-memory render — never the socket writes, so a stalled client
// can't hold a slot.
func (s *server) read(b []byte, answer bool, class string) []byte {
	// Replica-read gate: a standby serves reads while its feed is live
	// (the replica is provably current) and keeps serving from the last
	// durable generation when the primary is gone — but a replica that
	// diverged from a live primary redirects instead of answering wrong.
	if s.tail.Load() == tailStale {
		return wire.AppendError(b, wire.Fenced, "stale replica; redirect "+s.primaryAddr)
	}
	i, ok := s.classAt[class]
	if !ok {
		return wire.AppendError(b, wire.Proto, fmt.Sprintf("no standing query for class %q", class))
	}
	if s.readGate.enter() != nil {
		return wire.AppendError(b, wire.Overloaded, "read queue full"+retryHint)
	}
	v := s.view.Load()
	c := &v.classes[i]
	b = wire.AppendRead(b, class, c.size, v.gen)
	if answer {
		m := s.d.Engines()[i]
		incgraph.MergeRows(m, c.base, c.chain, func(row []incgraph.NodeID) { b = m.AppendRow(b, row) })
		b = append(b, wire.DumpEnd...)
	}
	s.readGate.exit()
	return b
}

// stat appends the counters reply to b.
func (s *server) stat(b []byte) []byte {
	// Graph counters come from the view, durable metadata from the mirror:
	// the graph and the store mutate under locks a read does not take.
	v := s.view.Load()
	var f wire.Fields
	f.Add("role", v.role, "nodes", v.nodes, "edges", v.edges, "gen", v.gen,
		"epoch", s.epoch.Load(), "walseq", s.walSeq.Load(), "walbytes", s.walBytes.Load(),
		"classes", strings.Join(s.classes, ","))
	// The read side: the generation on view, the ΔO rows waiting in chains
	// for a reader to merge, and how often a chain was folded into its base.
	chainRows := 0
	for i := range v.classes {
		chainRows += v.classes[i].chainRows
	}
	f.Add("view_gen", v.gen, "view_delta_rows", chainRows, "view_folds", s.viewFolds.Load())
	// Error counters: what the accept-loop and commit-path logs saw, as
	// machine-readable fields (the crash drill asserts their presence).
	f.Add("accept_errs", s.acceptErrs.Load(), "commit_errs", s.commitErrs.Load())
	// Overload counters: every shed, refused stage, oversized line and
	// deadline drop, so graceful degradation is observable, not silent.
	f.Add("conns", s.nconns.Load(), "conns_shed", s.connsShed.Load(), "staged_shed", s.stagedShed.Load(),
		"lines_too_long", s.linesTooLong.Load(), "idle_drops", s.idleDrops.Load())
	// commit_cluster_shed is always 0: the daemon has no cluster phase 1 to
	// shed a commit before. Its last reader is perf/e2e.go, which fails a run
	// whose stat lacks it, so it goes with the benchmark's next change, as
	// Durable.Recover does.
	ca, cs, ct := s.commitGate.stats()
	ra, rs, rt := s.readGate.stats()
	f.Add("commit_admitted", ca, "commit_shed", cs, "commit_timeouts", ct, "commit_cluster_shed", 0,
		"read_admitted", ra, "read_shed", rs, "read_timeouts", rt)
	// Disk-degradation state and counters: every retried append and every
	// read-only transition is observable, not just logged.
	f.Add("disk", diskName(s.diskState.Load()), "disk_retries", s.diskRetries.Load(),
		"disk_ro_enters", s.diskROEnters.Load(), "disk_ro_exits", s.diskROExits.Load(), "disk_shed", s.diskShed.Load())
	// Process runtime gauges, for the load generator's soak sampler.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f.Add("goroutines", runtime.NumGoroutine(), "heap_bytes", ms.HeapAlloc)
	// Whether the engines' fan-out engages on this traffic: parallel loops
	// run, loops a helper arrived in time to share, helpers started.
	fo := incgraph.ReadFanOutStats()
	f.Add("fanout_loops", fo.Loops, "fanout_engaged", fo.Engaged, "fanout_helpers", fo.Helpers)
	if v.hub != nil {
		f.Add("standbys", v.hub.Standbys())
	}
	if st := s.standby; st != nil {
		f.Add("tail", tailName(s.tail.Load()), "tail_term", st.Term(), "tail_seq", st.LastSeq(), "tail_gen", st.Gen())
	}
	return wire.AppendFields(b, f)
}

// health appends the cheap liveness probe's reply to b: role and position.
func (s *server) health(b []byte) []byte {
	v := s.view.Load()
	var f wire.Fields
	f.Add("role", v.role, "gen", v.gen, "walseq", s.walSeq.Load(), "disk", diskName(s.diskState.Load()))
	if v.hub != nil {
		f.Add("standbys", v.hub.Standbys())
	}
	if s.standby != nil {
		f.Add("tail", tailName(s.tail.Load()), "tail_seq", s.standby.LastSeq())
	}
	return wire.AppendFields(b, f)
}

// promote flips a standby into a primary at the deposed primary's term+1:
// it cuts the tail, and the replica's durable state becomes authoritative.
// Nothing fences the deposed primary (the daemon has no shard workers to
// refuse it); the operator promotes once it is gone.
func (s *server) promote(b []byte) []byte {
	// A feed apply holds commitMu for its whole body, so once we have it no
	// fed batch can slip in after the role check below.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.view.Load().role != roleStandby {
		return wire.AppendError(b, wire.Fenced, "already primary")
	}
	// Cut the tail first so a live feed cannot race the role flip; the
	// apply callback also rejects feeds once the role is primary.
	if s.tailConn != nil {
		s.tailConn.Close()
	}
	term := s.standby.Term() + 1
	s.publish(false, func(v *view) { v.role = rolePrimary })
	s.tail.Store(tailNone)
	log.Printf("promoted to primary at term %d", term)
	return wire.AppendPromoted(b, term)
}
