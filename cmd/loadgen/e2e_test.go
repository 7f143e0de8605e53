package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

	daemon := exec.Command(bin,
		"-store", filepath.Join(dir, "store"), "-addr", "127.0.0.1:0", "-scc",
		"-checkpoint-bytes", "0", "-fsync", "none",
		"-commit-inflight", "1", "-commit-queue", "2",
		"-read-inflight", "2", "-read-queue", "4",
		"-idle-timeout", "500ms",
	)
	addr := startAnnounced(t, daemon)
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

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

// startAnnounced starts the daemon — its -addr 127.0.0.1:0 — copies its
// log to stderr, and returns the address its "listening on" line
// announced.
func startAnnounced(t *testing.T, daemon *exec.Cmd) string {
	t.Helper()
	logs, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stdout = os.Stderr
	daemon.Stderr = w
	err = daemon.Start()
	w.Close()
	if err != nil {
		logs.Close()
		t.Fatal(err)
	}
	found := make(chan string, 1)
	go func() {
		defer logs.Close()
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			// The line protocol's socket; the hub announces
			// itself with a qualifier in front.
			if _, addr, ok := strings.Cut(line, " listening on "); ok && !strings.Contains(line, "hub listening") {
				select {
				case found <- strings.Fields(addr)[0]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-found:
		return addr
	case <-time.After(30 * time.Second):
		daemon.Process.Kill()
		daemon.Wait()
		t.Fatal("daemon announced no address within 30s")
		return ""
	}
}
