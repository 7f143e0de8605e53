// Command incgraphd is the long-lived serving daemon: it keeps a graph
// and a set of standing queries (KWS, RPQ, SCC, ISO) maintained
// incrementally under a continuous update stream, durably.
//
// Every committed batch is appended to a write-ahead log before it is
// applied (fsync policy via -fsync), checkpoints fold the log into a
// per-shard binary snapshot (on demand or past -checkpoint-bytes), and on
// restart the daemon recovers by snapshot-load + WAL replay through the
// engines' normal repair path — answers come back byte-identical to the
// uninterrupted run, so a SIGKILL costs recovery time, never correctness.
//
// Usage:
//
//	incgraphd -store DIR [-graph g.txt|g.snap] [-addr :7421]
//	          [-kws "a,b" -bound 2] [-rpq "a.b*.c"] [-iso pattern.txt] [-scc]
//	          [-shards N] [-workers N] [-fsync always|none]
//	          [-checkpoint-bytes N]
//	          [-cluster addr1,addr2 | -cluster-spawn N]
//	          [-repl off|async|quorum] [-term N] [-hub :7423]
//	          [-scrub-every D] [-disk-fault SPEC]
//	          [-max-conns N] [-idle-timeout D] [-op-timeout D]
//	          [-max-staged N] [-commit-inflight N] [-commit-queue N]
//	          [-read-inflight N] [-read-queue N]
//	incgraphd worker [-addr :7431] [-logdir DIR [-fsync always|none]]
//	incgraphd standby -primary HOST:7423 -store DIR [-addr :7422]
//	          [engine flags] [-ttl 2s] [-cluster addr1,addr2]
//	          [-repl off|async|quorum] [overload flags as above]
//
// On first start -graph seeds the store (text or .snap format, sniffed);
// later starts recover from the store and ignore -graph. The standing
// queries must be configured on every start (they are compiled state, not
// stored state; the store holds the graph and its update history).
//
// # Cluster mode
//
// "incgraphd worker" runs a shard worker: a process that owns a subset of
// the graph's shards behind the framed RPC protocol of internal/cluster
// and applies phase 1 of every committed batch for them. The serving
// daemon attaches workers with -cluster (comma-separated addresses of
// already-running workers) or -cluster-spawn N (N worker child processes
// on loopback ports); shards are placed round-robin by shipping snapshot
// segments. Commits then run the distributed two-phase protocol: phase 1
// fans out to the workers in parallel, and only after every worker
// acknowledged does the usual durable path run, so answers are
// byte-identical to a single-process daemon. A worker crash fails the
// in-flight commit atomically ("err staged: commit failed: ..."); once
// the worker is back on its address, the next commit reattaches it and
// re-ships its shards from the authoritative graph.
//
// # High availability
//
// -repl async|quorum ships every committed batch's WAL record to the
// workers owning its shards (per-shard replica logs; file-backed with the
// worker's -logdir); -term sets the coordinator's fencing term; -hub
// exposes a feed address for standbys. "incgraphd standby" tails that
// feed into its own fresh store: the handshake snapshot seeds the store,
// every fed record runs the normal durable apply, and the standby serves
// the read side of the line protocol the whole time — current reads while
// the feed is live, last-durable-generation reads once the primary dies,
// and a redirect (never a stale answer) if the replica diverged from a
// live primary. When the primary is gone, "promote" on the standby
// attaches a coordinator at term+1 over its -cluster workers: every shard
// is re-placed, the deposed primary's sessions are fenced ("err fenced:
// commit rejected: ..."), and answers continue byte-identical to an
// uninterrupted run. "health" reports role, term, and tail state without
// polling workers.
//
// The protocol is line-oriented over TCP — one command per line, one
// "ok ..."/"err ..." reply line (answer dumps are multi-line, dot-
// terminated). Error replies follow a fixed grammar, "err <category>:
// <detail>", with a closed category enum clients dispatch on —
// overloaded, disk, fenced, staged, idle, proto (see the server's
// errCategory documentation for the recovery action each implies).
// Updates are staged per connection and applied atomically on commit:
//
//	"+ v w [vlabel wlabel]"  stage an edge insertion (labels for new nodes)
//	"- v w"                  stage an edge deletion
//	commit                   validate, log, apply the staged batch; report ΔO
//	abort                    drop the staged batch
//	query CLASS              answer cardinality for kws|rpq|scc|iso:
//	                         "ok CLASS SIZE gen=G"
//	answer CLASS             the same header line, then the full canonical
//	                         answer, dot-terminated
//	stat                     graph/WAL/engine/view/cluster/replication counters
//	health                   cheap probe: role, term, tail, disk state
//	promote                  standby only: take over as primary at term+1
//	scrub                    cluster only: one anti-entropy pass, heal divergence
//	move S W                 cluster only: re-place shard S onto worker W
//	checkpoint               force a snapshot + fresh WAL
//	quit                     close the connection
//
// Reads take no lock. Every commit ends by publishing an immutable view of
// the state it produced — generation, graph counters, and per class the
// answer's size and the answer itself as canonically ordered rows plus the
// engines' ΔO of the commits since those rows were cut — with one atomic
// pointer store, after the in-memory apply and before its "ok applied"
// leaves; query, answer, stat and health load that pointer. A read
// therefore never waits for a commit or holds one up, always sees one whole
// generation, names it (gen=G in the reply to query and answer, the
// graph's mutation generation, as in "ok applied … gen=G"), and is never
// older than a commit whose ack anyone has already read; on one connection
// generations never go back. Rendering an answer costs its reader the merge
// of the rows with the ΔO chain; the commit path converts nothing, and a
// chain that outgrows a fixed fraction of its rows is folded into new rows
// by a goroutine of its own, between two commits.
// "stat" shows the read side as view_gen, view_delta_rows (ΔO rows waiting
// in chains, all classes) and view_folds. Commits, checkpoints and
// promotion are serialized among themselves.
//
// The process holds one graph: the engines are built on the store's graph,
// a commit validates and applies ΔG to it once, and each engine repairs its
// answer in place against the result. "stat" says so as graphs (distinct
// graphs resident: the store's plus every private engine graph) and
// engines_inplace (engines repairing on the store's graph): this daemon
// reads graphs=1 and engines_inplace equal to its class count. An engine
// attached on a clone of the graph — the library allows it — adds one to
// graphs and a full copy of the graph to resident memory, and is validated
// and applied to separately on every commit.
//
// # Parallelism
//
// -workers caps how many goroutines one build or repair may use (default:
// every core). The cap is not a width: each parallel loop of an engine
// runs on the committing goroutine, which offers the work to one helper
// and never waits for a helper that did not get there in time; helpers
// that do find work bring in more, up to the cap (graph.ParallelFor). A
// small commit is over before its helper arrives and waits for nobody.
// "stat" says whether the fan-out engages on the traffic at hand,
// process-wide since start: fanout_loops counts the parallel loops run,
// fanout_engaged those in which a helper arrived in time to run part of
// the loop, fanout_helpers the helper goroutines started. A busy daemon
// whose fanout_engaged stands still is repairing faster than help can
// arrive; one where it tracks fanout_loops is doing long repairs or
// builds, and fanout_helpers/fanout_loops is how wide they ran.
//
// # Overload behavior
//
// The daemon degrades explicitly, never silently: past -max-conns new
// connections get "err overloaded" at accept; a connection that cannot
// deliver a full line within -idle-timeout (however slowly it trickles
// bytes) or drain a reply within -op-timeout is cut; staging past
// -max-staged is refused; and commit/query admission is gated (bounded in
// flight, bounded queue, bounded wait) with excess load shed as
// "err overloaded: ...; retry in 100ms". Every shed, refused stage,
// oversized line and deadline drop is a counter in "stat". See the
// package documentation's "Overload & admission control" section for the
// degradation contract.
//
// # Disk degradation & anti-entropy
//
// A failing disk degrades the daemon the same way overload does:
// explicitly. A failed WAL append is retried with capped backoff (the
// WAL rolls back on failure, so nothing is acknowledged that is not
// durable); a disk that keeps failing flips the daemon into advertised
// read-only mode — commits shed with "err disk: degraded; read-only"
// while reads keep answering — and a background probe flips it back to
// healthy the moment appends work again, with no restart. "stat" and
// "health" expose disk=healthy|retrying|read-only plus retry and
// transition counters. -disk-fault arms a seeded fault-injection layer
// under the store (EIO, ENOSPC, torn writes, failed or lying fsync,
// crash) for reproducible drills: same seed, same traffic, same faults.
//
// In cluster mode -scrub-every starts the anti-entropy scrubber: each
// tick verifies one shard's worker replica byte-for-byte against the
// coordinator-authoritative state (including the worker's on-disk
// replica log) and re-places any shard that diverged — bit rot is found
// and healed in the background, not on the next unlucky read. "scrub"
// runs one full pass on demand; scrub_* counters appear in "stat".
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"incgraph"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := runWorker(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "incgraphd worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "standby" {
		if err := runStandby(os.Args[2:], stopOnSignal()); err != nil {
			fmt.Fprintf(os.Stderr, "incgraphd standby: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		storeDir     = flag.String("store", "", "store directory (required; created on first start)")
		graphPath    = flag.String("graph", "", "initial graph file, text or .snap (first start only)")
		addr         = flag.String("addr", ":7421", "TCP listen address")
		kwsQuery     = flag.String("kws", "", "standing KWS query: comma-separated keywords")
		bound        = flag.Int("bound", 2, "KWS distance bound b")
		rpqQuery     = flag.String("rpq", "", "standing RPQ query expression")
		isoPath      = flag.String("iso", "", "standing ISO pattern graph file")
		scc          = flag.Bool("scc", false, "maintain strongly connected components")
		shards       = flag.Int("shards", 0, "graph shard count (0 = default; first start only)")
		workers      = flag.Int("workers", 0, "engine worker pool size (0 = all cores)")
		fsync        = flag.String("fsync", "always", "WAL fsync policy: always|none")
		ckptBytes    = flag.Int64("checkpoint-bytes", 64<<20, "auto-checkpoint when the WAL exceeds this size (0 = manual only)")
		clusterAddrs = flag.String("cluster", "", "comma-separated shard-worker addresses to attach (cluster mode)")
		clusterSpawn = flag.Int("cluster-spawn", 0, "spawn N shard-worker child processes on loopback ports (cluster mode)")
		term         = flag.Uint64("term", 1, "coordinator fencing term (a promoted standby attaches at its primary's term+1)")
		repl         = flag.String("repl", "off", "cluster log-shipping policy: off|async|quorum")
		hubAddr      = flag.String("hub", "", "listen address for standby feed connections (HA primary)")
		scrubEvery   = flag.Duration("scrub-every", 0, "background anti-entropy interval: verify one shard replica per tick (0 = off; cluster mode)")
		diskFault    = flag.String("disk-fault", "", "seeded disk-fault injection spec for drills, e.g. \"seed=7;op=sync,path=wal,count=3,kind=syncfail\"")
	)
	lim := limitFlags(flag.CommandLine)
	flag.Parse()

	if err := run(config{
		storeDir:     *storeDir,
		graphPath:    *graphPath,
		addr:         *addr,
		kwsQuery:     *kwsQuery,
		bound:        *bound,
		rpqQuery:     *rpqQuery,
		isoPath:      *isoPath,
		scc:          *scc,
		shards:       *shards,
		workers:      *workers,
		fsync:        *fsync,
		ckptBytes:    *ckptBytes,
		clusterAddrs: *clusterAddrs,
		clusterSpawn: *clusterSpawn,
		term:         *term,
		repl:         *repl,
		hubAddr:      *hubAddr,
		scrubEvery:   *scrubEvery,
		diskFault:    *diskFault,
		lim:          *lim,
	}, stopOnSignal()); err != nil {
		fmt.Fprintf(os.Stderr, "incgraphd: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	storeDir, graphPath, addr   string
	kwsQuery, rpqQuery, isoPath string
	bound, shards, workers      int
	scc                         bool
	fsync                       string
	ckptBytes                   int64
	clusterAddrs                string
	clusterSpawn                int
	term                        uint64
	repl                        string
	hubAddr                     string
	scrubEvery                  time.Duration
	diskFault                   string
	lim                         limits
}

// parseSync maps the -fsync flag to a WAL sync policy.
func parseSync(name string) (incgraph.SyncPolicy, error) {
	switch strings.ToLower(name) {
	case "always":
		return incgraph.SyncAlways, nil
	case "none":
		return incgraph.SyncNone, nil
	default:
		return 0, fmt.Errorf("unknown -fsync policy %q (want always|none)", name)
	}
}

// parseRepl maps the -repl flag to a log-shipping policy.
func parseRepl(name string) (incgraph.ReplPolicy, error) {
	switch strings.ToLower(name) {
	case "", "off":
		return incgraph.ReplOff, nil
	case "async":
		return incgraph.ReplAsync, nil
	case "quorum":
		return incgraph.ReplQuorum, nil
	default:
		return 0, fmt.Errorf("unknown -repl policy %q (want off|async|quorum)", name)
	}
}

// runWorker is the "incgraphd worker" subcommand: a shard worker serving
// the cluster RPC protocol until SIGTERM/SIGINT.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", ":7431", "TCP listen address for the cluster RPC protocol")
	logDir := fs.String("logdir", "", "directory for file-backed per-shard replica logs (empty = in-memory)")
	fsync := fs.String("fsync", "none", "replica-log fsync policy: always|none")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ln, err := incgraph.ListenCluster(*addr)
	if err != nil {
		return err
	}
	log.Printf("worker listening on %s", ln.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ln.Close()
	}()
	w := incgraph.NewClusterWorker()
	if *logDir != "" {
		sync, err := parseSync(*fsync)
		if err != nil {
			return err
		}
		if err := w.SetLogDir(*logDir, sync); err != nil {
			return err
		}
		log.Printf("replica logs in %s (fsync %s)", *logDir, strings.ToLower(*fsync))
	}
	if err := w.Serve(ln); err != nil && !isClosed(err) {
		return err
	}
	log.Printf("worker shutting down")
	return nil
}

// isClosed reports the listener-closed error a clean shutdown produces.
func isClosed(err error) bool { return errors.Is(err, net.ErrClosed) }

// spawnWorkers launches n "incgraphd worker" child processes on loopback
// ports and waits for each to accept. The returned stop kills them.
func spawnWorkers(n int) (addrs []string, stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var procs []*exec.Cmd
	stop = func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}
	for i := 0; i < n; i++ {
		// Reserve a free loopback port, release it, hand it to the child.
		// The tiny window is acceptable for a local dev topology.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(self, "worker", "-addr", addr)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, err
		}
		procs = append(procs, cmd)
		if err := waitForAddr(addr, 10*time.Second); err != nil {
			stop()
			return nil, nil, fmt.Errorf("spawned worker on %s never came up: %w", addr, err)
		}
		addrs = append(addrs, addr)
	}
	return addrs, stop, nil
}

// waitForAddr polls until a TCP dial to addr succeeds.
func waitForAddr(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// attachEngines builds the standing-query engines the flags describe
// directly on the durable's (snapshot-time) graph and attaches them, ready
// for Recover to replay the WAL through: the process holds one graph, which
// a commit moves once and every engine then repairs against in place.
// Shared by the primary and standby paths — a standby must run the same
// engines to serve the same answers.
func attachEngines(d *incgraph.Durable, cfg config) error {
	if cfg.kwsQuery != "" {
		q := incgraph.KWSQuery{Keywords: strings.Split(cfg.kwsQuery, ","), Bound: cfg.bound}
		ix, err := incgraph.NewKWS(d.Graph(), q)
		if err != nil {
			return fmt.Errorf("kws: %w", err)
		}
		if err := d.Attach(incgraph.MaintainKWS(ix)); err != nil {
			return err
		}
	}
	if cfg.rpqQuery != "" {
		e, err := incgraph.NewRPQ(d.Graph(), cfg.rpqQuery)
		if err != nil {
			return fmt.Errorf("rpq: %w", err)
		}
		if err := d.Attach(incgraph.MaintainRPQ(e)); err != nil {
			return err
		}
	}
	if cfg.isoPath != "" {
		pg, err := incgraph.LoadGraphFile(cfg.isoPath)
		if err != nil {
			return fmt.Errorf("iso: %w", err)
		}
		p, err := incgraph.NewPattern(pg)
		if err != nil {
			return fmt.Errorf("iso: %w", err)
		}
		if err := d.Attach(incgraph.MaintainISO(incgraph.NewISO(d.Graph(), p))); err != nil {
			return err
		}
	}
	if cfg.scc {
		if err := d.Attach(incgraph.MaintainSCC(incgraph.NewSCC(d.Graph()))); err != nil {
			return err
		}
	}
	return nil
}

// splitAddrs splits a comma-separated address list, tolerating stray
// commas ("a,b," / "a,,b"): an empty element would otherwise abort
// startup with a confusing dial error.
func splitAddrs(list string) []string {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// stopOnSignal returns a channel closed at SIGTERM/SIGINT.
func stopOnSignal() <-chan struct{} {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sig
		close(stop)
	}()
	return stop
}

// run is the serving daemon: it serves until stop is closed.
func run(cfg config, stop <-chan struct{}) error {
	if cfg.storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	sync, err := parseSync(cfg.fsync)
	if err != nil {
		return err
	}
	repl, err := parseRepl(cfg.repl)
	if err != nil {
		return err
	}
	opts := incgraph.DurableOptions{Sync: sync}
	// Disk-fault drills: route the store's write path (WAL, snapshots,
	// MANIFEST rotation) through a seeded FaultFS. The injected failures
	// exercise the degradation contract — retry, read-only, heal — while
	// the event log keeps the drill reproducible.
	var faultFS *incgraph.FaultFS
	if cfg.diskFault != "" {
		faultFS, err = parseDiskFault(cfg.diskFault)
		if err != nil {
			return err
		}
		opts.FS = faultFS
		log.Printf("disk-fault injection armed: seed %d, %d rule(s)", faultFS.Seed, len(faultFS.Rules))
	}

	// Open-or-create the durable state.
	var d *incgraph.Durable
	recovered := false
	if incgraph.DurableExists(cfg.storeDir) {
		var err error
		d, err = incgraph.OpenDurable(cfg.storeDir, opts)
		if err != nil {
			return err
		}
		recovered = true
	} else {
		g := incgraph.NewGraph()
		if cfg.graphPath != "" {
			var err error
			g, err = incgraph.LoadGraphFile(cfg.graphPath)
			if err != nil {
				return err
			}
		}
		if cfg.shards != 0 {
			g.SetShards(cfg.shards)
		}
		var err error
		d, err = incgraph.CreateDurable(cfg.storeDir, g, opts)
		if err != nil {
			return err
		}
	}
	d.Graph().SetParallelism(cfg.workers)

	// Standing queries: build engines on the (snapshot-time) graph,
	// attach, then replay the WAL through graph and engines.
	if err := attachEngines(d, cfg); err != nil {
		return err
	}
	if err := d.Recover(); err != nil {
		return err
	}
	if recovered {
		log.Printf("recovered store %s: %d nodes, %d edges, gen %d, WAL seq %d",
			cfg.storeDir, d.Graph().NumNodes(), d.Graph().NumEdges(), d.Generation(), d.WALSeq())
	} else {
		log.Printf("created store %s: %d nodes, %d edges (%d shards)",
			cfg.storeDir, d.Graph().NumNodes(), d.Graph().NumEdges(), d.Graph().NumShards())
	}
	for _, m := range d.Engines() {
		log.Printf("standing query %s: %d answers", m.Class(), m.Size())
	}

	// The server is built before the cluster so the HA hub's snapshot
	// callback can serialize against its lock; the coordinator (if any)
	// is installed below, before serving starts.
	srv, err := newServer(d, cfg.ckptBytes, cfg.lim)
	if err != nil {
		return err
	}
	srv.repl = repl

	// HA hub: standbys connect here, handshake a snapshot, and tail every
	// committed batch. The snapshot callback reads (feedSeq, graph) under
	// commitMu — the lock every commit applies and feeds under — so no
	// committed batch can fall between a standby's snapshot and its feed
	// stream.
	var hub *incgraph.ClusterHub
	var hubLn net.Listener
	if cfg.hubAddr != "" {
		hub = incgraph.NewClusterHub(incgraph.ClusterHubOptions{
			Term: cfg.term,
			Snapshot: func() (uint64, uint64, []byte, error) {
				srv.commitMu.Lock()
				defer srv.commitMu.Unlock()
				snap, err := incgraph.EncodeSnapshot(d.Graph())
				return srv.feedSeq, d.Generation(), snap, err
			},
		})
		srv.publish(false, func(v *view) { v.hub = hub })
		hubLn, err = net.Listen("tcp", cfg.hubAddr)
		if err != nil {
			return err
		}
		log.Printf("hub listening on %s (term %d)", hubLn.Addr(), cfg.term)
		go func() {
			for {
				conn, err := hubLn.Accept()
				if err != nil {
					return
				}
				go func() {
					if err := hub.ServeConn(conn); err != nil && !isClosed(err) {
						log.Printf("standby feed: %v", err)
					}
					conn.Close()
				}()
			}
		}()
	}

	// Cluster mode: attach (or spawn) shard workers and place every shard
	// by shipping its snapshot segment.
	stopSpawned := func() {}
	if cfg.clusterAddrs != "" || cfg.clusterSpawn > 0 {
		addrs := splitAddrs(cfg.clusterAddrs)
		if cfg.clusterSpawn > 0 {
			spawned, stop, err := spawnWorkers(cfg.clusterSpawn)
			if err != nil {
				return err
			}
			stopSpawned = stop
			addrs = append(addrs, spawned...)
		}
		links := make([]incgraph.ClusterLink, 0, len(addrs))
		for _, a := range addrs {
			link, err := incgraph.DialClusterWorker(a)
			if err != nil {
				stopSpawned()
				return err
			}
			links = append(links, link)
		}
		cl, err := incgraph.NewCluster(d.Graph(), links,
			incgraph.WithClusterTerm(cfg.term), incgraph.WithReplication(repl))
		if err != nil {
			stopSpawned()
			return err
		}
		srv.publish(false, func(v *view) { v.cl = cl })
		log.Printf("cluster: %d shards placed across %d workers (term %d, repl %s)",
			d.Graph().NumShards(), cl.NumWorkers(), cfg.term, repl)
		if cfg.scrubEvery > 0 {
			// Background anti-entropy: one shard replica verified (and
			// healed if divergent) per tick, round-robin — the whole
			// cluster is re-verified every shards×interval.
			cl.StartScrubber(cfg.scrubEvery)
			log.Printf("scrubber: verifying one shard replica every %v", cfg.scrubEvery)
		}
	}

	serveErr := srv.serve(cfg.addr, stop)
	if hubLn != nil {
		hubLn.Close()
	}
	if hub != nil {
		hub.Close()
	}
	stopSpawned()
	return serveErr
}
