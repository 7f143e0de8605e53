package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"incgraph"
)

// runStandby is the "incgraphd standby" subcommand: a warm replica that
// tails a primary's hub. The handshake snapshot seeds a fresh durable
// store; every fed record then runs the normal durable apply — WAL
// append, graph mutation, engine maintenance — so the standby is itself
// crash-safe and its engines serve the same answers the primary's do.
//
// The standby serves the read side of the line protocol the whole time
// (query/answer/stat/health); commits are rejected until "promote" flips
// it into a primary at the deposed primary's term+1, cutting the tail.
// Nothing fences the deposed primary: promote once it is gone. When the
// primary dies the tail ends with
// a lease expiry or a severed connection; the standby keeps serving
// reads from its last durable generation and waits for the operator's
// promote. A tail that ends because the replica itself diverged (an
// apply error against a live primary) flips reads to redirect instead —
// a stale replica must not answer. It serves until stop is closed.
func runStandby(args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("standby", flag.ExitOnError)
	cfg := engineFlags(fs)
	var (
		primary  = fs.String("primary", "", "primary hub address to tail (required)")
		storeDir = fs.String("store", "", "replica store directory (required; must be fresh — the handshake snapshot seeds it)")
		addr     = fs.String("addr", ":7422", "TCP listen address for the read-only line protocol")
		ttl      = fs.Duration("ttl", 2*time.Second, "primary lease TTL (a small multiple of the hub's heartbeat)")
	)
	lim := limitFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *primary == "" {
		return fmt.Errorf("-primary is required")
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}
	if incgraph.DurableExists(*storeDir) {
		return fmt.Errorf("-store %s already holds a durable store; a standby seeds a fresh one from the primary's snapshot", *storeDir)
	}
	sync, err := parseSync(cfg.fsync)
	if err != nil {
		return err
	}

	conn, err := net.DialTimeout("tcp", *primary, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dial primary hub %s: %w", *primary, err)
	}
	defer conn.Close()

	// The tail's Load callback builds the whole serving state: decode the
	// snapshot, seed the store, attach engines, and construct the server
	// the listener below serves.
	// The hub guarantees Load completes before the first fed record, and
	// the feed applies strictly after loaded is signaled.
	var srv *server
	loaded := make(chan struct{})
	st := incgraph.NewClusterStandby(incgraph.ClusterStandbyOptions{
		TTL: *ttl,
		Load: func(term, seq, gen uint64, snap []byte) error {
			g, err := incgraph.DecodeSnapshot(snap)
			if err != nil {
				return err
			}
			d, err := incgraph.CreateDurable(*storeDir, g, incgraph.DurableOptions{Sync: sync})
			if err != nil {
				return err
			}
			// Before the engines are built, as on the primary: they repair
			// on this graph and follow its budget.
			d.Graph().SetParallelism(cfg.workers)
			if err := attachEngines(d, *cfg); err != nil {
				return err
			}
			srv = newServer(d, cfg.ckptBytes, *lim)
			srv.publish(false, func(v *view) { v.role = roleStandby })
			srv.primaryAddr = *primary
			srv.tailConn = conn
			srv.tail.Store(tailLive)
			log.Printf("seeded from %s: term %d, seq %d, gen %d, %d nodes, %d edges",
				*primary, term, seq, gen, g.NumNodes(), g.NumEdges())
			close(loaded)
			return nil
		},
		Apply: func(seq, postGen uint64, b incgraph.Batch) error {
			// commitMu around the whole commit (the lock order is on server)
			// orders the feed against the checkpoint verb and a racing
			// promote, which also take it.
			srv.commitMu.Lock()
			defer srv.commitMu.Unlock()
			v := srv.view.Load()
			if v.role != roleStandby {
				// Promoted between the hub's push and this apply: the
				// replica is authoritative now, the old feed is history.
				return fmt.Errorf("promoted; feed rejected")
			}
			// The same hooks a primary commits through, with the default log
			// step.
			opts, res := srv.applyOptions(v, b)
			if _, err := srv.d.Commit(b, opts); err != nil {
				srv.syncDurableMeta()
				return err
			}
			if res.gen != postGen {
				return fmt.Errorf("replica at gen %d, primary said %d", res.gen, postGen)
			}
			return nil
		},
	})

	runErr := make(chan error, 1)
	go func() { runErr <- st.Run(conn) }()
	select {
	case <-loaded:
	case err := <-runErr:
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("handshake with %s: %w", *primary, err)
	}
	srv.standby = st

	// Watch the tail: when it ends, classify for the read path. Lease
	// expiry and transport deaths mean the primary is gone — keep serving
	// reads from the last durable generation (degraded). Anything else
	// (an apply failure, a protocol violation against a live primary)
	// means this replica diverged — reads must redirect, not answer.
	go func() {
		err := <-runErr
		state := tailStale
		var ne net.Error
		if err == nil || errors.Is(err, incgraph.ErrLeaseExpired) ||
			errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
			errors.As(err, &ne) {
			state = tailDegraded
		}
		// A promote cut the tail itself; don't downgrade the new primary.
		// commitMu waits out a promote still in progress.
		srv.commitMu.Lock()
		promoted := srv.view.Load().role != roleStandby
		srv.commitMu.Unlock()
		if promoted {
			return
		}
		srv.tail.Store(state)
		log.Printf("tail ended (%s): %v — serving reads at gen %d seq %d; \"promote\" to take over",
			tailName(state), err, st.Gen(), st.LastSeq())
	}()

	return srv.serve(*addr, stop)
}
