package cluster

import (
	"bytes"
	"fmt"
	"time"

	"incgraph/internal/store"
)

// Anti-entropy scrubbing. Phase 1's per-shard delta cross-check catches a
// diverged replica only when a batch touches the shard; a replica whose
// in-memory state silently diverged stays wrong until then. The scrubber
// turns resync from an abort-triggered repair into a continuously verified
// guarantee: it walks shards in the background, compares the worker's
// parcel bytes against the coordinator-authoritative segment (parcels are
// byte-deterministic, so equality is exact), and re-places any shard that
// differs from the authoritative parcel — the same heal an aborted batch
// triggers, now driven by verification instead of luck.
//
// Scrubbing never waits for commits: a shard whose check finds the
// coordinator mutex held (a batch in flight) is skipped and revisited on
// the next pass, and the background loop paces one shard per interval
// rather than sweeping in a burst.

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Checked counts shards fully verified (or found divergent).
	Checked int
	// Skipped counts shards not verified this pass: a commit in flight,
	// owner down, or already marked for resync.
	Skipped int
	// Mismatches counts shards that failed verification: divergent parcel
	// bytes, or a worker that could not export the shard.
	Mismatches int
	// Heals counts mismatched shards successfully re-placed.
	Heals int
}

// ScrubStats are the coordinator's lifetime anti-entropy counters.
type ScrubStats struct {
	Passes     uint64
	Checked    uint64
	Mismatches uint64
	Heals      uint64
	Skips      uint64
}

// ScrubCounters returns the lifetime anti-entropy counters.
func (c *Coordinator) ScrubCounters() ScrubStats {
	return ScrubStats{
		Passes:     c.scrubPasses.Load(),
		Checked:    c.scrubChecked.Load(),
		Mismatches: c.scrubMismatches.Load(),
		Heals:      c.scrubHeals.Load(),
		Skips:      c.scrubSkips.Load(),
	}
}

// ScrubShard verifies shard s's remote replica — parcel bytes against the
// authoritative segment — and re-places the shard on a mismatch. It
// returns whether a heal happened. A shard that cannot be verified right
// now (a commit in flight, owner down) is skipped without error: the next
// pass gets it.
func (c *Coordinator) ScrubShard(s int) (healed bool, err error) {
	if s < 0 || s >= c.g.NumShards() {
		return false, fmt.Errorf("cluster: ScrubShard: shard %d out of range [0,%d)", s, c.g.NumShards())
	}
	if !c.mu.TryLock() {
		c.scrubSkips.Add(1)
		return false, nil
	}
	defer c.mu.Unlock()
	l := c.workers[c.WorkerOf(s)]
	if c.dirty[s] {
		// Already awaiting resync; the next batch (or heal below on a
		// later pass) re-places it. Nothing to verify against.
		c.scrubSkips.Add(1)
		return false, nil
	}
	if _, serr := l.session(); serr != nil {
		// Scrubbing does not redial: reattachment reconciles ownership and
		// belongs to the commit path (prepareShards), not a background
		// verifier racing it.
		c.scrubSkips.Add(1)
		return false, nil
	}
	want, err := store.EncodeShardParcel(c.g, s)
	if err != nil {
		return false, err
	}
	c.scrubChecked.Add(1)
	divergent := false
	r, rerr := l.requestHint(appendUvarint([]byte{byte(msgExport)}, uint64(s)), len(want))
	switch {
	case rerr == nil:
		divergent = !bytes.Equal(r.rest(), want)
	case IsRemote(rerr):
		// The worker answered but cannot export the shard (lost ownership,
		// diverged state): that IS a mismatch.
		divergent = true
	default:
		// Transport failure: the link is marked down; nothing verifiable.
		c.scrubSkips.Add(1)
		return false, nil
	}
	if !divergent {
		return false, nil
	}
	c.scrubMismatches.Add(1)
	if err := c.place(l, s); err != nil {
		// Heal failed: flag the shard so the next batch's prepareShards
		// retries the placement before using it.
		c.dirty[s] = true
		c.remoteErrs.Add(1)
		return false, fmt.Errorf("cluster: scrub heal of shard %d on %s: %w", s, l.name, err)
	}
	c.scrubHeals.Add(1)
	c.resyncs.Add(1)
	return true, nil
}

// Scrub runs one full anti-entropy pass over every shard and reports what
// it found. A shard whose turn meets a commit in flight is skipped, not
// waited for.
func (c *Coordinator) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	var firstErr error
	before := c.ScrubCounters()
	for s := 0; s < c.g.NumShards(); s++ {
		healed, err := c.ScrubShard(s)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if healed {
			rep.Heals++
		}
	}
	after := c.ScrubCounters()
	rep.Checked = int(after.Checked - before.Checked)
	rep.Skipped = int(after.Skips - before.Skips)
	rep.Mismatches = int(after.Mismatches - before.Mismatches)
	c.scrubPasses.Add(1)
	return rep, firstErr
}

// StartScrubber launches the background anti-entropy loop: one shard
// verified per interval, round-robin, until Close. The per-shard pacing
// is the rate limit — a P-shard cluster is fully verified every
// P×interval, and the scrubber never issues more than one RPC per tick.
func (c *Coordinator) StartScrubber(interval time.Duration) {
	if interval <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		s := 0
		for {
			select {
			case <-c.quit:
				return
			case <-t.C:
			}
			c.ScrubShard(s)
			s++
			if s >= c.g.NumShards() {
				s = 0
				c.scrubPasses.Add(1)
			}
		}
	}()
}
