package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incgraph"
	"incgraph/internal/graph"
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
	// rows and classAt are fixed at construction: the engines' row
	// surfaces in attach order, and the position of each class.
	view      atomic.Pointer[view]
	rows      []incgraph.RowAnswer
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

// Error-reply grammar. Every error reply is one line of the form
//
//	err <category>: <detail>
//
// where <category> is a closed enum clients dispatch on; the detail text
// is human-oriented and may change between releases, the categories do
// not. Each category implies one recovery action:
//
//	overloaded  shed by admission control; nothing changed; retry after
//	            the hinted delay
//	disk        durability degraded (read-only mode, or a disk operation
//	            failed); nothing changed; retry after the hinted delay
//	fenced      this node's role or authority cannot serve the request
//	            (standby, stale replica, promote on a primary) —
//	            redirect to the primary or promote, retrying here is
//	            useless
//	staged      the staging area refused the request, or the staged
//	            batch was rejected at commit and dropped — fix the batch
//	            and re-stage
//	idle        the per-line read deadline expired; the connection is cut
//	proto       the request could not be served as issued — malformed,
//	            unknown, inapplicable to this deployment, or an admin
//	            operation that failed without tripping the disk or
//	            admission machinery
type errCategory string

const (
	catOverloaded errCategory = "overloaded"
	catDisk       errCategory = "disk"
	catFenced     errCategory = "fenced"
	catStaged     errCategory = "staged"
	catIdle       errCategory = "idle"
	catProto      errCategory = "proto"
)

// replyErr sends one grammar-conformant error reply.
func replyErr(reply func(string, ...any) bool, cat errCategory, format string, args ...any) bool {
	return reply("%s", errLine(cat, format, args...))
}

// errLine formats an error reply without sending it.
func errLine(cat errCategory, format string, args ...any) string {
	return fmt.Sprintf("err %s: %s", cat, fmt.Sprintf(format, args...))
}

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
// (publish changes that). Every attached engine must have a row surface.
func newServer(d *incgraph.Durable, ckptBytes int64, lim limits) (*server, error) {
	rows, err := rowAnswers(d)
	if err != nil {
		return nil, err
	}
	classAt := make(map[string]int, len(rows))
	for i, m := range d.Engines() {
		classAt[m.Class()] = i
	}
	s := &server{d: d, ckptBytes: ckptBytes, rows: rows, classAt: classAt,
		folding:        make([]atomic.Bool, len(rows)),
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
	return s, nil
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
				fmt.Fprintf(c, "err overloaded: connection limit %d reached; retry in %dms\n",
					s.lim.maxConns, retryHintMS)
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
	// Every flush runs under a write deadline: a client that stops
	// draining its socket is cut at the op timeout instead of holding the
	// handler goroutine (and whatever it has admitted) forever.
	flush := func() bool {
		if s.lim.opTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.lim.opTimeout))
			defer conn.SetWriteDeadline(time.Time{})
		}
		return out.Flush() == nil
	}
	reply := func(format string, args ...any) bool {
		fmt.Fprintf(out, format+"\n", args...)
		return flush()
	}
	var pending incgraph.Batch
	for {
		// A stage ack is held back while the next line is already here (a
		// burst of stage lines leaves in one write, not one per line); it
		// must not stay held across a wait. Every reply but that ack
		// flushes, so output is pending here only after a held ack followed
		// by lines that produce no reply (blank, comment).
		if !more && out.Buffered() > 0 && !flush() {
			return
		}
		// Arm the per-line deadline when the wait for a line STARTS and do
		// not refresh it per byte: a byte-at-a-time slow-loris client hits
		// it exactly like an idle one.
		if s.lim.idle > 0 {
			conn.SetReadDeadline(time.Now().Add(s.lim.idle))
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "+", "-":
			u, err := graph.ParseUpdate(fields)
			if err != nil {
				if !replyErr(reply, catProto, "%v", err) {
					return
				}
				continue
			}
			if s.lim.maxStaged > 0 && len(pending) >= s.lim.maxStaged {
				s.stagedShed.Add(1)
				if !replyErr(reply, catStaged, "limit %d reached; commit or abort first", s.lim.maxStaged) {
					return
				}
				continue
			}
			pending = append(pending, u)
			out.Write(appendStagedLine(out.AvailableBuffer(), len(pending)))
			// Held acks never fill the buffer: bufio would then write to
			// the connection itself, outside the write deadline.
			if (!more || out.Available() < 64) && !flush() {
				return
			}
		case "abort":
			n := len(pending)
			pending = nil
			if !reply("ok aborted %d", n) {
				return
			}
		case "commit":
			// A shed keeps the staged batch: "retry in 100ms" must mean
			// re-sending "commit", not re-staging everything.
			shed, alive := s.commit(pending, reply)
			if !alive {
				return
			}
			if !shed {
				pending = nil
			}
		case "query", "answer":
			if len(fields) != 2 {
				if !replyErr(reply, catProto, "usage: %s CLASS", fields[0]) {
					return
				}
				continue
			}
			if !s.read(fields[0], fields[1], conn, out, reply) {
				return
			}
		case "stat":
			if !s.stat(reply) {
				return
			}
		case "health":
			if !s.health(reply) {
				return
			}
		case "promote":
			if !s.promote(reply) {
				return
			}
		case "checkpoint":
			// Snapshot writing only reads the graph, which no one mutates
			// without commitMu; readers keep answering from the view while
			// the checkpoint's I/O drains.
			s.commitMu.Lock()
			err := s.d.Checkpoint()
			s.syncDurableMeta()
			epoch := s.epoch.Load()
			s.commitMu.Unlock()
			if err != nil {
				if !replyErr(reply, catDisk, "checkpoint failed: %v", err) {
					return
				}
				continue
			}
			if !reply("ok checkpoint epoch=%d", epoch) {
				return
			}
		case "quit":
			reply("ok bye")
			return
		default:
			if !replyErr(reply, catProto, "unknown command %q", fields[0]) {
				return
			}
		}
	}
	// The scan ended without a clean quit: tell the client why before the
	// deferred close when we can, and count what happened.
	switch err := sc.Err(); {
	case err == nil:
		// EOF: client hung up.
	case errors.Is(err, bufio.ErrTooLong):
		// The stream cannot be resynchronized mid-line, so the connection
		// must die — but with an explicit reply first, not a silent cut.
		s.linesTooLong.Add(1)
		replyErr(reply, catProto, "line too long; max %d bytes per line", maxLineBytes)
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// Per-line read deadline: idle or slow-loris. The read side is
			// dead but the write side usually is not; say why we hung up.
			s.idleDrops.Add(1)
			replyErr(reply, catIdle, "no complete line in %v", s.lim.idle)
		}
	}
}

// commit applies one staged batch and reports ΔO per class. The path is
// gated (bounded commits in flight, bounded queue, bounded wait — excess
// load is shed with an explicit overload reply); applyOptions has the rest.
//
// The returned shed is true when the batch was refused by admission
// control (nothing was applied; the caller keeps it staged so a bare
// retry works); alive is false when the connection died mid-reply.
func (s *server) commit(batch incgraph.Batch, reply func(string, ...any) bool) (shed, alive bool) {
	if len(batch) == 0 {
		return false, replyErr(reply, catStaged, "nothing staged")
	}
	v := s.view.Load()
	if v.role == roleStandby {
		return false, replyErr(reply, catFenced, "standby is read-only; promote to accept commits")
	}
	// Read-only disk mode sheds before admission: the batch stays staged
	// (a bare "commit" retry works once the probe heals the disk) and the
	// gate's slots stay free for the probe-driven recovery.
	if s.diskState.Load() == diskReadOnly {
		s.diskShed.Add(1)
		return true, replyErr(reply, catDisk, "degraded; read-only; retry in %dms", retryHintMS)
	}
	if s.commitGate.enter() != nil {
		return true, replyErr(reply, catOverloaded, "commit queue full; retry in %dms", retryHintMS)
	}
	// The slot goes back before the reply goes out: a client that has read
	// its ack (or its error) may retry at once, and on a full gate that
	// retry must find the capacity this commit held, not race its release.
	shed, line := s.commitAdmitted(batch, v)
	s.commitGate.exit()
	return shed, reply("%s", line)
}

// commitAdmitted is commit past the admission gate. It returns the reply
// line instead of sending it, so that the caller can release the gate slot
// first.
func (s *server) commitAdmitted(batch incgraph.Batch, v *view) (shed bool, line string) {
	opts, res := s.applyOptions(v, batch)
	// commitMu around the whole validate + log + apply keeps WAL order equal
	// to commit order.
	s.commitMu.Lock()
	sums, err := s.d.Commit(batch, opts)
	s.commitMu.Unlock()
	if err != nil {
		if errors.Is(err, errDiskDegraded) {
			// The append retries were exhausted and the daemon just went
			// read-only. Nothing was logged or applied, so this commit is a
			// shed like the ones the read-only check above refuses: the
			// batch stays staged and the same reply tells the client why.
			s.diskShed.Add(1)
			return true, errLine(catDisk, "degraded; read-only; retry in %dms", retryHintMS)
		}
		if !errors.Is(err, incgraph.ErrBadUpdate) {
			s.commitErrs.Add(1)
			log.Printf("commit failed: %v", err)
		}
		return false, errLine(catStaged, "commit failed: %v", err)
	}
	return false, appliedLine(len(batch), res.gen, s.d.Engines(), sums)
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

// appendStagedLine appends the stage ack, "ok staged N" and a newline,
// without fmt: it is written once per staged update.
func appendStagedLine(b []byte, n int) []byte {
	b = append(b, "ok staged "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\n')
}

// appliedLine renders the commit ack, "ok applied N gen=G" followed by
// " <class>=ΔO{+a −b ~c}" per engine (DeltaSummary.String's rendering;
// clients parse it), without fmt.
func appliedLine(n int, gen uint64, engines []incgraph.Maintained, sums []incgraph.DeltaSummary) string {
	b := make([]byte, 0, 48+40*len(engines))
	b = append(b, "ok applied "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " gen="...)
	b = strconv.AppendUint(b, gen, 10)
	for i, m := range engines {
		b = append(b, ' ')
		b = append(b, m.Class()...)
		b = append(b, "=ΔO{+"...)
		b = strconv.AppendInt(b, int64(sums[i].Added), 10)
		b = append(b, " −"...)
		b = strconv.AppendInt(b, int64(sums[i].Removed), 10)
		b = append(b, " ~"...)
		b = strconv.AppendInt(b, int64(sums[i].Updated), 10)
		b = append(b, '}')
	}
	return string(b)
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
// the current view: the size published with it, and for an answer the
// view's base rows merged with its chain of ΔO, rendered while merging.
// Nothing here can fail or wait for a commit. Both replies name the
// generation they were served at. The read gate covers only the in-memory
// render — never the socket writes, so a stalled client can't hold a slot.
func (s *server) read(cmd, class string, conn net.Conn, out *bufio.Writer, reply func(string, ...any) bool) bool {
	// Replica-read gate: a standby serves reads while its feed is live
	// (the replica is provably current) and keeps serving from the last
	// durable generation when the primary is gone — but a replica that
	// diverged from a live primary redirects instead of answering wrong.
	if s.tail.Load() == tailStale {
		return replyErr(reply, catFenced, "stale replica; redirect %s", s.primaryAddr)
	}
	i, ok := s.classAt[class]
	if !ok {
		return replyErr(reply, catProto, "no standing query for class %q", class)
	}
	if s.readGate.enter() != nil {
		return replyErr(reply, catOverloaded, "read queue full; retry in %dms", retryHintMS)
	}
	v := s.view.Load()
	c := &v.classes[i]
	var dump []byte
	if cmd == "answer" {
		ra := s.rows[i]
		incgraph.MergeRows(ra, c.base, c.chain, func(row []incgraph.NodeID) { dump = ra.AppendRow(dump, row) })
	}
	s.readGate.exit()
	if !reply("ok %s %d gen=%d", class, c.size, v.gen) {
		return false
	}
	if cmd == "query" {
		return true
	}
	// The dump can be many buffer-fulls; the whole drain runs under one
	// write deadline so a stalled client is cut at the op timeout.
	if s.lim.opTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.lim.opTimeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if _, err := out.Write(dump); err != nil {
		return false
	}
	fmt.Fprintln(out, ".")
	return out.Flush() == nil
}

func (s *server) stat(reply func(string, ...any) bool) bool {
	// The engines' classes are fixed at attach; reading them touches no
	// engine state.
	classes := make([]string, 0, len(s.d.Engines()))
	for _, m := range s.d.Engines() {
		classes = append(classes, m.Class())
	}
	// Graph counters come from the view, durable metadata from the mirror:
	// the graph and the store mutate under locks a read does not take.
	v := s.view.Load()
	line := fmt.Sprintf("ok role=%s nodes=%d edges=%d gen=%d shards=%d epoch=%d walseq=%d walbytes=%d classes=%s",
		v.role, v.nodes, v.edges, v.gen, v.shards,
		s.epoch.Load(), s.walSeq.Load(), s.walBytes.Load(), strings.Join(classes, ","))
	// The read side: the generation on view, the ΔO rows waiting in chains
	// for a reader to merge, and how often a chain was folded into its base.
	chainRows := 0
	for i := range v.classes {
		chainRows += v.classes[i].chainRows
	}
	line += fmt.Sprintf(" view_gen=%d view_delta_rows=%d view_folds=%d", v.gen, chainRows, s.viewFolds.Load())
	// Error counters: what the accept-loop and commit-path logs saw, as
	// machine-readable fields (the crash drill asserts their presence).
	line += fmt.Sprintf(" accept_errs=%d commit_errs=%d", s.acceptErrs.Load(), s.commitErrs.Load())
	// Overload counters: every shed, refused stage, oversized line and
	// deadline drop, so graceful degradation is observable, not silent.
	line += fmt.Sprintf(" conns=%d conns_shed=%d staged_shed=%d lines_too_long=%d idle_drops=%d",
		s.nconns.Load(), s.connsShed.Load(), s.stagedShed.Load(),
		s.linesTooLong.Load(), s.idleDrops.Load())
	// commit_cluster_shed is always 0: the daemon has no cluster phase 1 to
	// shed a commit before. Its last reader is perf/e2e.go, which fails a run
	// whose stat lacks it, so it goes with the benchmark's next change, as
	// Durable.Recover does.
	ca, cs, ct := s.commitGate.stats()
	ra, rs, rt := s.readGate.stats()
	line += fmt.Sprintf(" commit_admitted=%d commit_shed=%d commit_timeouts=%d commit_cluster_shed=0 read_admitted=%d read_shed=%d read_timeouts=%d",
		ca, cs, ct, ra, rs, rt)
	// Disk-degradation state and counters: every retried append and every
	// read-only transition is observable, not just logged.
	line += fmt.Sprintf(" disk=%s disk_retries=%d disk_ro_enters=%d disk_ro_exits=%d disk_shed=%d",
		diskName(s.diskState.Load()), s.diskRetries.Load(),
		s.diskROEnters.Load(), s.diskROExits.Load(), s.diskShed.Load())
	// Process runtime gauges, for the load generator's soak sampler.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	line += fmt.Sprintf(" goroutines=%d heap_bytes=%d", runtime.NumGoroutine(), ms.HeapAlloc)
	// Whether the engines' fan-out engages on this traffic: parallel loops
	// run, loops a helper arrived in time to share, helpers started.
	fo := incgraph.ReadFanOutStats()
	line += fmt.Sprintf(" fanout_loops=%d fanout_engaged=%d fanout_helpers=%d", fo.Loops, fo.Engaged, fo.Helpers)
	if v.hub != nil {
		line += fmt.Sprintf(" standbys=%d", v.hub.Standbys())
	}
	if st := s.standby; st != nil {
		line += fmt.Sprintf(" tail=%s tail_term=%d tail_seq=%d tail_gen=%d",
			tailName(s.tail.Load()), st.Term(), st.LastSeq(), st.Gen())
	}
	return reply("%s", line)
}

// health is the cheap liveness probe: one line of role and position.
func (s *server) health(reply func(string, ...any) bool) bool {
	v := s.view.Load()
	line := fmt.Sprintf("ok role=%s gen=%d walseq=%d disk=%s",
		v.role, v.gen, s.walSeq.Load(), diskName(s.diskState.Load()))
	if v.hub != nil {
		line += fmt.Sprintf(" standbys=%d", v.hub.Standbys())
	}
	if s.standby != nil {
		line += fmt.Sprintf(" tail=%s tail_seq=%d", tailName(s.tail.Load()), s.standby.LastSeq())
	}
	return reply("%s", line)
}

// promote flips a standby into a primary at the deposed primary's term+1:
// it cuts the tail, and the replica's durable state becomes authoritative.
// Nothing fences the deposed primary (the daemon has no shard workers to
// refuse it); the operator promotes once it is gone.
func (s *server) promote(reply func(string, ...any) bool) bool {
	// A feed apply holds commitMu for its whole body, so once we have it no
	// fed batch can slip in after the role check below.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.view.Load().role != roleStandby {
		return replyErr(reply, catFenced, "already primary")
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
	return reply("ok promoted term=%d", term)
}
