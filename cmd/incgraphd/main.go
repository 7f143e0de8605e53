// Command incgraphd is the long-lived serving daemon: it keeps a graph
// and a set of standing queries (KWS, RPQ, SCC, ISO) maintained
// incrementally under a continuous update stream, durably.
//
// Every committed batch is appended to a write-ahead log before it is
// applied (fsync policy via -fsync), checkpoints fold the log into a
// per-shard binary snapshot (on demand or past -checkpoint-bytes), and on
// restart the daemon recovers by snapshot-load + WAL replay onto the graph,
// then builds its engines once on the recovered graph — answers come back
// byte-identical to the uninterrupted run, so a SIGKILL costs recovery
// time, never correctness.
//
// Usage:
//
//	incgraphd -store DIR [-graph g.txt|g.snap] [-addr :7421]
//	          [-kws "a,b" -bound 2] [-rpq "a.b*.c"] [-iso pattern.txt] [-scc]
//	          [-workers N] [-fsync always|none]
//	          [-checkpoint-bytes N]
//	          [-term N] [-hub :7423]
//	          [-max-conns N] [-idle-timeout D] [-op-timeout D]
//	          [-max-staged N] [-commit-inflight N] [-commit-queue N]
//	          [-read-inflight N] [-read-queue N]
//	incgraphd standby -primary HOST:7423 -store DIR [-addr :7422]
//	          [engine flags] [-ttl 2s]
//	          [overload flags as above]
//
// The engine flags — -kws, -bound, -rpq, -iso, -scc, -workers, -fsync and
// -checkpoint-bytes — mean the same on the primary and the standby.
//
// On first start -graph seeds the store (text or .snap format, sniffed);
// later starts recover from the store and ignore -graph. The standing
// queries must be configured on every start (they are compiled state, not
// stored state; the store holds the graph and its update history).
//
// The daemon is one process: the graph, the engines, the WAL and the
// published view all live in it. The graph keeps the shard count of the
// -graph it was seeded from (a .snap its own, a text graph the default).
//
// # High availability
//
// -hub exposes a feed address for standbys, the one replication path, and
// -term names the primary's term on it. "incgraphd standby" tails that
// feed into its own fresh store: the handshake snapshot seeds the store,
// every fed record runs the normal durable apply, and the standby serves
// the read side of the line protocol the whole time — current reads while
// the feed is live, last-durable-generation reads once the primary dies,
// and a redirect (never a stale answer) if the replica diverged from a
// live primary. When the primary is gone, "promote" on the standby makes
// it the primary at term+1 ("ok promoted term=N"): the standby's store is
// what survives the primary, and answers continue byte-identical to an
// uninterrupted run. The deposed primary is not fenced: nothing refuses
// its commits if it is still alive, so promote only a standby whose
// primary is gone. "health" reports role and tail state.
//
// The protocol is line-oriented over TCP: one request per line, one
// "ok …" or "err CATEGORY: detail" reply line, updates staged per
// connection and applied atomically on commit. It is written down once, in
// the package documentation of internal/wire, which also writes and parses
// every reply: each command and its reply, and the closed set of error
// categories with the recovery action each implies.
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
// # Disk degradation
//
// A failing disk degrades the daemon the same way overload does:
// explicitly. A failed WAL append is retried with capped backoff (the
// WAL rolls back on failure, so nothing is acknowledged that is not
// durable); a disk that keeps failing flips the daemon into advertised
// read-only mode — commits shed with "err disk: degraded; read-only"
// while reads keep answering — and a background probe flips it back to
// healthy the moment appends work again, with no restart. "stat" and
// "health" expose disk=healthy|retrying|read-only plus retry and
// transition counters.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"incgraph"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "standby" {
		if err := runStandby(os.Args[2:], stopOnSignal()); err != nil {
			fmt.Fprintf(os.Stderr, "incgraphd standby: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cfg := engineFlags(flag.CommandLine)
	flag.StringVar(&cfg.storeDir, "store", "", "store directory (required; created on first start)")
	flag.StringVar(&cfg.graphPath, "graph", "", "initial graph file, text or .snap (first start only)")
	flag.StringVar(&cfg.addr, "addr", ":7421", "TCP listen address")
	flag.Uint64Var(&cfg.term, "term", 1, "the primary's term on its standby feed (a promoted standby takes its primary's term+1)")
	flag.StringVar(&cfg.hubAddr, "hub", "", "listen address for standby feed connections (HA primary)")
	lim := limitFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "incgraphd: unknown command %q (the one subcommand is standby)\n", flag.Arg(0))
		os.Exit(2)
	}
	cfg.lim = *lim

	if err := run(*cfg, stopOnSignal()); err != nil {
		fmt.Fprintf(os.Stderr, "incgraphd: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	storeDir, graphPath, addr   string
	kwsQuery, rpqQuery, isoPath string
	bound, workers              int
	scc                         bool
	fsync                       string
	ckptBytes                   int64
	term                        uint64
	hubAddr                     string
	lim                         limits
}

// engineFlags registers the flags that describe the engines and their store
// on fs and returns the config they fill (shared by the primary and standby
// subcommands): the standing queries, the engines' parallelism, and the
// WAL's fsync and checkpoint policy.
func engineFlags(fs *flag.FlagSet) *config {
	cfg := new(config)
	fs.StringVar(&cfg.kwsQuery, "kws", "", "standing KWS query: comma-separated keywords")
	fs.IntVar(&cfg.bound, "bound", 2, "KWS distance bound b")
	fs.StringVar(&cfg.rpqQuery, "rpq", "", "standing RPQ query expression")
	fs.StringVar(&cfg.isoPath, "iso", "", "standing ISO pattern graph file")
	fs.BoolVar(&cfg.scc, "scc", false, "maintain strongly connected components")
	fs.IntVar(&cfg.workers, "workers", 0, "engine worker pool size (0 = all cores)")
	fs.StringVar(&cfg.fsync, "fsync", "always", "WAL fsync policy: always|none")
	fs.Int64Var(&cfg.ckptBytes, "checkpoint-bytes", 64<<20, "auto-checkpoint when the WAL exceeds this size (0 = manual only)")
	return cfg
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

// isClosed reports the listener-closed error a clean shutdown produces.
func isClosed(err error) bool { return errors.Is(err, net.ErrClosed) }

// attachEngines builds the standing-query engines the flags describe
// directly on the durable's graph (recovered, when the store was opened)
// and attaches them: the process holds one graph, which a commit moves
// once and every engine then repairs against in place.
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
	opts := incgraph.DurableOptions{Sync: sync}

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
		var err error
		d, err = incgraph.CreateDurable(cfg.storeDir, g, opts)
		if err != nil {
			return err
		}
	}
	d.Graph().SetParallelism(cfg.workers)

	// Standing queries: build engines on the graph (a recovered store's is
	// already the snapshot ⊕ the WAL tail) and attach them.
	if err := attachEngines(d, cfg); err != nil {
		return err
	}
	if recovered {
		log.Printf("recovered store %s: %d nodes, %d edges, gen %d, WAL seq %d",
			cfg.storeDir, d.Graph().NumNodes(), d.Graph().NumEdges(), d.Generation(), d.WALSeq())
	} else {
		log.Printf("created store %s: %d nodes, %d edges",
			cfg.storeDir, d.Graph().NumNodes(), d.Graph().NumEdges())
	}
	for _, m := range d.Engines() {
		log.Printf("standing query %s: %d answers", m.Class(), m.Size())
	}

	// The server is built before the hub so the hub's snapshot callback can
	// serialize against its lock.
	srv := newServer(d, cfg.ckptBytes, cfg.lim)

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

	serveErr := srv.serve(cfg.addr, stop)
	if hubLn != nil {
		hubLn.Close()
	}
	if hub != nil {
		hub.Close()
	}
	return serveErr
}
