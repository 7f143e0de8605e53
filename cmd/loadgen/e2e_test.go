package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestLoadgenSmoke is the end-to-end drill CI runs scaled down: build the
// real daemon, start it on a fresh empty store with tight admission gates
// and a short idle timeout, drive a mixed scenario with a spike and a
// slow client through the public runScenario path, and assert the
// degradation contract plus recovery parity — the post-storm graph must
// be byte-identical to a serial replay of exactly the acked commits.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "incgraphd")
	build := exec.Command("go", "build", "-o", bin, "../incgraphd")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	addr := pickAddr(t)
	daemon := exec.Command(bin,
		"-store", filepath.Join(dir, "store"), "-addr", addr, "-scc",
		"-checkpoint-bytes", "0", "-fsync", "none",
		"-commit-inflight", "1", "-commit-queue", "2",
		"-read-inflight", "2", "-read-queue", "4",
		"-idle-timeout", "500ms",
	)
	daemon.Stdout = os.Stderr
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	waitAccept(t, addr)

	sc, err := parseScenario([]byte(`{
  "name": "smoke",
  "description": "scaled-down mixed run for the test suite",
  "clients": 4,
  "duration": "2500ms",
  "warmup": "300ms",
  "batch": 6,
  "slow_clients": 1,
  "expect_cut_within": "2s",
  "mix": {"query": 50, "commit": 45, "answer": 5},
  "spike": {"at": "800ms", "duration": "1s", "multiplier": 2},
  "check": {"p99_max": "5s", "min_spike_throughput_frac": 0.1}
}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runScenario(addr, sc, runOpts{opBudget: 10 * time.Second, parity: true}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("contract violation: %s", v)
	}
	if !res.ParityChecked {
		t.Fatal("parity was not checked")
	}
	var admitted int
	for _, ph := range res.Phases {
		for _, cs := range ph.Classes {
			admitted += cs.Admitted
		}
	}
	if admitted == 0 {
		t.Fatal("no ops admitted: the run measured nothing")
	}
	if res.SlowCuts[0] == 0 {
		t.Fatal("slow client was never cut despite -idle-timeout 500ms")
	}
	t.Logf("admitted %d ops; slow client cut after %v", admitted, res.SlowCuts[0])
}

func pickAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitAccept(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			fmt.Fprintln(c, "quit")
			c.Close()
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never accepted on %s", addr)
}
