package main

// Disk-degradation drills for the serving layer: the -disk-fault spec
// parser, and the full retrying → read-only → probe → healed cycle of
// doc.go's disk column, driven end-to-end over the line protocol against
// an in-process server whose store runs on a seeded FaultFS.

import (
	"strings"
	"testing"
	"time"

	"incgraph"
)

func TestParseDiskFault(t *testing.T) {
	ffs, err := parseDiskFault("seed=7;op=sync,path=wal,index=2,count=3,kind=syncfail;op=write,keep=10,prob=0.5,kind=enospc")
	if err != nil {
		t.Fatal(err)
	}
	if ffs.Seed != 7 {
		t.Fatalf("seed = %d, want 7", ffs.Seed)
	}
	if len(ffs.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(ffs.Rules))
	}
	r0, r1 := ffs.Rules[0], ffs.Rules[1]
	if r0.Op != "sync" || r0.Path != "wal" || r0.Index != 2 || r0.Count != 3 || r0.Kind != incgraph.FaultSyncFail {
		t.Fatalf("rule 0 = %+v", r0)
	}
	if r1.Op != "write" || r1.Keep != 10 || r1.Prob != 0.5 || r1.Kind != incgraph.FaultENOSPC {
		t.Fatalf("rule 1 = %+v", r1)
	}
	if r1.Index != -1 {
		t.Fatalf("rule 1 index = %d, want -1 (every match) by default", r1.Index)
	}

	kinds := map[string]incgraph.FaultKind{
		"eio": incgraph.FaultEIO, "enospc": incgraph.FaultENOSPC,
		"short": incgraph.FaultShortWrite, "shortwrite": incgraph.FaultShortWrite,
		"torn": incgraph.FaultTornWrite, "tornwrite": incgraph.FaultTornWrite,
		"syncfail": incgraph.FaultSyncFail, "synclie": incgraph.FaultSyncLie,
		"crash": incgraph.FaultCrash, "POWERFAIL": incgraph.FaultPowerFail,
	}
	for name, want := range kinds {
		got, err := parseFaultKind(name)
		if err != nil || got != want {
			t.Fatalf("parseFaultKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}

	for _, bad := range []string{
		"",                     // no rules
		"seed=7",               // seed alone arms nothing
		"seed=x;op=sync",       // unparsable seed
		"op=sync,kind=bogus",   // unknown kind
		"op=sync,volume=11",    // unknown key
		"nonsense",             // not key=value
		"op=sync,index=twelve", // unparsable int
		"op=write,prob=lots",   // unparsable float
	} {
		if _, err := parseDiskFault(bad); err == nil {
			t.Fatalf("parseDiskFault(%q) accepted", bad)
		}
	}
}

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

	c := dialLine(t, addr)
	defer c.close()
	c.cmd(t, "+ 9000 9001 z z")
	reply := c.raw(t, "commit")
	if !strings.HasPrefix(reply, "err disk: degraded; read-only") {
		t.Fatalf("commit under dead disk replied %q, want disk-degraded shed", reply)
	}
	if got := srv.diskState.Load(); got != diskReadOnly {
		t.Fatalf("disk state = %s, want read-only", diskName(got))
	}
	if health := c.cmd(t, "health"); !strings.Contains(health, "disk=read-only") {
		t.Fatalf("health = %q, want disk=read-only advertised", health)
	}

	// Reads answer while commits are shed: the degradation is partial.
	c.cmd(t, "query scc")
	c.answer(t, "scc")

	// The probe heals the disk once the fault window closes; no operator,
	// no restart.
	waitFor(t, "disk recovery", func() bool {
		return srv.diskState.Load() == diskHealthy
	})
	if health := c.cmd(t, "health"); !strings.Contains(health, "disk=healthy") {
		t.Fatalf("health after heal = %q, want disk=healthy", health)
	}

	// The shed kept the staged batch: the same connection commits it now
	// (possibly through a few more retries as the tail rules burn off).
	reply = c.cmd(t, "commit")
	if !strings.Contains(reply, "applied 1 ") {
		t.Fatalf("post-heal commit replied %q, want the staged batch applied", reply)
	}

	if enters, exits := srv.diskROEnters.Load(), srv.diskROExits.Load(); enters != 1 || exits != 1 {
		t.Fatalf("read-only transitions = %d in / %d out, want exactly one cycle", enters, exits)
	}
	if shed := srv.diskShed.Load(); shed != 1 {
		t.Fatalf("disk_shed = %d, want 1", shed)
	}
	stat := c.cmd(t, "stat")
	for _, want := range []string{"disk=healthy", "disk_ro_enters=1", "disk_ro_exits=1", "disk_shed=1"} {
		if !strings.Contains(stat, want) {
			t.Fatalf("stat = %q, missing %q", stat, want)
		}
	}
}

// TestDiskFaultTransientRetryStaysWritable: a single failed fsync never
// escalates to read-only — the capped-backoff retry absorbs it and the
// commit is acknowledged, with the retry surfaced in stat.
func TestDiskFaultTransientRetryStaysWritable(t *testing.T) {
	srv, addr := diskTestServer(t, incgraph.NewFaultFS(7,
		incgraph.FSRule{Op: "sync", Path: "wal", Index: 1, Kind: incgraph.FaultSyncFail}))

	c := dialLine(t, addr)
	defer c.close()
	c.cmd(t, "+ 9000 9001 z z")
	reply := c.cmd(t, "commit")
	if !strings.Contains(reply, "applied 1 ") {
		t.Fatalf("commit replied %q, want success through the retry", reply)
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
