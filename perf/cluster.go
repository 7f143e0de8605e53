package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"incgraph"
	"incgraph/internal/store"
)

// side is one of the in-process stacks that replay the stream's head
// beside the traced one — the same stack untraced, the same stack with a
// device flush per commit, and the distributed commit over two transports. They commit every head batch in lockstep
// with the traced replay, so whatever disturbs the machine disturbs all
// of them alike and their ratios hold.
type side struct {
	d     *incgraph.Durable
	opts  incgraph.ApplyOptions
	times []time.Duration
	// fsyncs are the device flushes of the timed commits (synced side only).
	fsyncs []time.Duration
	// place is what attaching the cluster took (cluster sides only).
	place time.Duration
	close func()
}

func (s *side) commit(b incgraph.Batch) error {
	start := time.Now()
	_, err := s.d.Commit(b, s.opts)
	s.times = append(s.times, time.Since(start))
	return err
}

// The in-process measurement of the distributed commit: Durable.Commit
// with ApplyOptions.Via over 2 workers and 8 shards.
const (
	clusterShards  = 8
	clusterWorkers = 2
)

// openPlain is the daemon's stack with no wrapper anywhere.
func (r *run) openPlain() (*side, error) {
	d, err := r.openDurable(filepath.Join(r.dir, "untraced"), 0, incgraph.DurableOptions{Sync: flushPolicy}, r.plain)
	if err != nil {
		return nil, err
	}
	return &side{d: d, close: func() { d.Close() }}, nil
}

// openSynced is the same stack under -fsync always, every device flush
// timed: what the flush the benchmark's policy leaves out would add to a
// commit on this machine's disk.
func (r *run) openSynced() (*side, error) {
	s := &side{}
	d, err := r.openDurable(filepath.Join(r.dir, "synced"), 0, incgraph.DurableOptions{FS: &timingFS{FS: store.OS, syncs: &s.fsyncs}}, r.plain)
	if err != nil {
		return nil, err
	}
	s.d, s.close = d, func() { d.Close() }
	return s, nil
}

// openClusterPipe attaches two workers over InProcessLinks.
func (r *run) openClusterPipe() (*side, error) {
	links, _, stop := incgraph.InProcessLinks(clusterWorkers)
	s, err := r.openCluster("cluster-pipe", links)
	if err != nil {
		stop()
		return nil, err
	}
	closeCluster := s.close
	s.close = func() { closeCluster(); stop() }
	return s, nil
}

// openClusterTCP attaches two workers served from this process over real
// loopback sockets (ListenCluster / DialClusterWorker).
func (r *run) openClusterTCP() (*side, error) {
	var wg sync.WaitGroup
	var listeners []net.Listener
	stop := func() {
		for _, ln := range listeners {
			ln.Close()
		}
		wg.Wait()
	}
	var links []incgraph.ClusterLink
	for i := 0; i < clusterWorkers; i++ {
		ln, err := incgraph.ListenCluster("127.0.0.1:0")
		if err != nil {
			stop()
			return nil, err
		}
		listeners = append(listeners, ln)
		wg.Add(1)
		go func() {
			defer wg.Done()
			incgraph.NewClusterWorker().Serve(ln)
		}()
		link, err := incgraph.DialClusterWorker(ln.Addr().String())
		if err != nil {
			stop()
			return nil, err
		}
		links = append(links, link)
	}
	s, err := r.openCluster("cluster-tcp", links)
	if err != nil {
		stop()
		return nil, err
	}
	closeCluster := s.close
	s.close = func() { closeCluster(); stop() }
	return s, nil
}

// openCluster creates a fresh 8-shard store in dir and attaches links as
// its shard workers.
func (r *run) openCluster(dir string, links []incgraph.ClusterLink) (*side, error) {
	d, err := r.openDurable(filepath.Join(r.dir, dir), clusterShards, incgraph.DurableOptions{Sync: flushPolicy}, r.plain)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cl, err := incgraph.NewCluster(d.Graph(), links)
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return &side{
		d: d, opts: incgraph.ApplyOptions{Via: cl}, place: time.Since(start),
		close: func() { cl.Close(); d.Close() },
	}, nil
}
