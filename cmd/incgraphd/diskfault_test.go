package main

// Disk-degradation drills for the serving layer: the full retrying →
// read-only → probe → healed cycle of doc.go's disk column, driven
// end-to-end over the line protocol against an in-process server whose
// store runs on a seeded FaultFS.

import (
	"testing"
	"time"

	"incgraph"
)

// diskTestServer serves newTestServer's store running on the given
// FaultFS, with the disk-degradation knobs tightened for test speed.
func diskTestServer(t *testing.T, ffs *incgraph.FaultFS) (*server, string) {
	srv := newTestServer(t, nil, incgraph.DurableOptions{FS: ffs}, limits{})
	srv.diskBackoff = time.Millisecond
	srv.diskProbeEvery = 10 * time.Millisecond
	return srv, serveTest(t, srv)
}

// TestDiskDegradationReadOnlyCycle pins the daemon's disk contract under
// a burst of injected fsync failures: the commit is retried, the retries
// exhaust, the daemon flips to advertised read-only mode — commits shed
// with an explicit reply, reads keep answering, health says so — and
// when the disk recovers the probe flips it back and the same staged
// batch commits. WAL sync #0 is store creation, so the per-index rules
// start at 1: the fault window opens only once the daemon is serving.
func TestDiskDegradationReadOnlyCycle(t *testing.T) {
	rules := make([]incgraph.FSRule, 6)
	for i := range rules {
		rules[i] = incgraph.FSRule{Op: "sync", Path: "wal", Index: i + 1, Kind: incgraph.FaultSyncFail}
	}
	srv, addr := diskTestServer(t, incgraph.NewFaultFS(7, rules...))

	c := dial(t, addr)
	noErr(t, c.Stage(incgraph.Batch{incgraph.InsNew(9000, 9001, "z", "z")}))
	refused(t, c, "commit", "err disk: degraded; read-only")
	if got := srv.diskState.Load(); got != diskReadOnly {
		t.Fatalf("disk state = %s, want read-only", diskName(got))
	}
	if disk, _ := must(t, c.Health).Get("disk"); disk != "read-only" {
		t.Fatalf("health disk=%s, want read-only advertised", disk)
	}

	// Reads answer while commits are shed: the degradation is partial.
	query(t, c, "scc")
	answer(t, c, "scc")

	// The probe heals the disk once the fault window closes; no operator,
	// no restart.
	waitFor(t, "disk recovery", func() bool {
		return srv.diskState.Load() == diskHealthy
	})
	if disk, _ := must(t, c.Health).Get("disk"); disk != "healthy" {
		t.Fatalf("health after heal: disk=%s, want healthy", disk)
	}

	// The shed kept the staged batch: the same connection commits it now
	// (possibly through a few more retries as the tail rules burn off).
	if ack := must(t, c.Commit); ack.N != 1 {
		t.Fatalf("post-heal commit applied %d, want the staged batch of 1", ack.N)
	}

	if enters, exits := srv.diskROEnters.Load(), srv.diskROExits.Load(); enters != 1 || exits != 1 {
		t.Fatalf("read-only transitions = %d in / %d out, want exactly one cycle", enters, exits)
	}
	if shed := srv.diskShed.Load(); shed != 1 {
		t.Fatalf("disk_shed = %d, want 1", shed)
	}
	st := must(t, c.Stat)
	for key, want := range map[string]string{"disk": "healthy", "disk_ro_enters": "1", "disk_ro_exits": "1", "disk_shed": "1"} {
		if v, _ := st.Get(key); v != want {
			t.Fatalf("stat %s=%s, want %s", key, v, want)
		}
	}
}

// TestDiskFaultTransientRetryStaysWritable: a single failed fsync never
// escalates to read-only — the capped-backoff retry absorbs it and the
// commit is acknowledged, with the retry surfaced in stat.
func TestDiskFaultTransientRetryStaysWritable(t *testing.T) {
	srv, addr := diskTestServer(t, incgraph.NewFaultFS(7,
		incgraph.FSRule{Op: "sync", Path: "wal", Index: 1, Kind: incgraph.FaultSyncFail}))

	c := dial(t, addr)
	noErr(t, c.Stage(incgraph.Batch{incgraph.InsNew(9000, 9001, "z", "z")}))
	if ack := must(t, c.Commit); ack.N != 1 {
		t.Fatalf("commit applied %d, want success through the retry", ack.N)
	}
	if got := srv.diskState.Load(); got != diskHealthy {
		t.Fatalf("disk state = %s, want healthy (one flake is not degradation)", diskName(got))
	}
	if srv.diskRetries.Load() == 0 {
		t.Fatal("retry counter never moved; the fault missed")
	}
	if srv.diskROEnters.Load() != 0 {
		t.Fatal("a single transient fsync failure escalated to read-only")
	}
}
