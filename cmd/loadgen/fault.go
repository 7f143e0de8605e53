package main

import (
	"bufio"
	"fmt"
	"net"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The fault driver: runs the scenario's mid-storm topology fault.
//
// failover pauses traffic, drains the standby's feed up to the
// primary's generation (so every acked commit is on the survivor —
// without the drain, -parity would rightly fail on commits acked just
// before the kill whose feed frames died with the primary), kills the
// primary with -fault-exec, promotes -failover-addr, swaps the shared
// address, and resumes. Workers reconnect to the promoted standby.
//
// rebalance needs no pause: it cycles "move S W" against the live
// coordinator every fault.every — segment shipping competes with
// commits, which is exactly the contention under test.

// runFault dispatches the scenario's fault action at its scheduled time.
func runFault(sc *Scenario, env *runEnv, opts runOpts, stop <-chan struct{}, logf func(string, ...any)) (string, error) {
	select {
	case <-stop:
		return "", nil
	case <-time.After(time.Until(env.epoch.Add(time.Duration(sc.Fault.At)))):
	}
	switch sc.Fault.Action {
	case "failover":
		return runFailover(env, opts, logf)
	case "rebalance":
		return runRebalance(sc, env, stop, logf)
	}
	return "", fmt.Errorf("unknown fault action %q", sc.Fault.Action)
}

func runFailover(env *runEnv, opts runOpts, logf func(string, ...any)) (string, error) {
	if opts.failoverAddr == "" || opts.faultExec == "" {
		return "", fmt.Errorf("failover scenario needs -failover-addr and -fault-exec")
	}
	primary := env.book.get()
	logf("failover: pausing traffic")
	env.paused.Store(true)
	defer env.paused.Store(false)
	// Let in-flight ops finish so no commit is mid-ack at the kill.
	time.Sleep(300 * time.Millisecond)

	// Drain: the standby must have applied every acked commit before the
	// primary dies, or those commits exist nowhere after promotion.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pGen, err := queryGen(primary)
		if err != nil {
			return "", fmt.Errorf("drain: primary stat: %v", err)
		}
		sGen, err := queryGen(opts.failoverAddr)
		if err != nil {
			return "", fmt.Errorf("drain: standby stat: %v", err)
		}
		if sGen >= pGen {
			logf("failover: standby drained to gen %d", sGen)
			break
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("drain: standby stuck at gen %d, primary at %d", sGen, pGen)
		}
		time.Sleep(20 * time.Millisecond)
	}

	logf("failover: killing primary: %s", opts.faultExec)
	if out, err := exec.Command("/bin/sh", "-c", opts.faultExec).CombinedOutput(); err != nil {
		return "", fmt.Errorf("-fault-exec: %v (%s)", err, strings.TrimSpace(string(out)))
	}

	// Promote, with a short retry: the standby notices the dead feed on
	// its own clock.
	var promoted string
	deadline = time.Now().Add(10 * time.Second)
	for {
		reply, err := oneShot(opts.failoverAddr, "promote")
		if err == nil && strings.HasPrefix(reply, "ok promoted") {
			promoted = reply
			break
		}
		if err == nil && replyCategory(reply) == "fenced" && strings.Contains(reply, "already primary") {
			promoted = reply // a retried promote raced its own success
			break
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("promote: %v %s", err, reply)
		}
		time.Sleep(100 * time.Millisecond)
	}
	env.book.set(opts.failoverAddr)
	logf("failover complete: %s now serves at %s", promoted, opts.failoverAddr)
	return fmt.Sprintf("failover: killed %s, %s", primary, promoted), nil
}

func runRebalance(sc *Scenario, env *runEnv, stop <-chan struct{}, logf func(string, ...any)) (string, error) {
	// Learn the topology once: shard count from "stat" shards=, worker
	// count from cluster_workers=U/T.
	stat, err := oneShot(env.book.get(), "stat")
	if err != nil {
		return "", fmt.Errorf("rebalance: stat: %v", err)
	}
	shards, workers := 0, 0
	for _, f := range strings.Fields(stat) {
		if v, ok := strings.CutPrefix(f, "shards="); ok {
			shards, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(f, "cluster_workers="); ok {
			if _, t, ok := strings.Cut(v, "/"); ok {
				workers, _ = strconv.Atoi(t)
			}
		}
	}
	if shards == 0 || workers < 2 {
		return "", fmt.Errorf("rebalance needs a cluster with >=2 workers (stat: shards=%d workers=%d)", shards, workers)
	}
	moves, failures := 0, 0
	t := time.NewTicker(time.Duration(sc.Fault.Every))
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			if failures > 0 {
				return "", fmt.Errorf("rebalance: %d of %d moves failed", failures, moves+failures)
			}
			return fmt.Sprintf("rebalance: %d shard moves across %d workers", moves, workers), nil
		case <-t.C:
		}
		s := i % shards
		w := (i + 1) % workers
		reply, err := oneShot(env.book.get(), fmt.Sprintf("move %d %d", s, w))
		if err != nil || !strings.HasPrefix(reply, "ok moved") {
			failures++
			logf("rebalance: move %d %d: %v %s", s, w, err, reply)
			continue
		}
		moves++
		logf("rebalance: shard %d -> worker %d", s, w)
	}
}

// oneShot runs a single command on a fresh connection and returns the
// first reply line.
func oneShot(addr, cmd string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		return "", err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	return strings.TrimSpace(reply), err
}

// queryGen reads gen= from a daemon's "stat" line.
func queryGen(addr string) (uint64, error) {
	stat, err := oneShot(addr, "stat")
	if err != nil {
		return 0, err
	}
	for _, f := range strings.Fields(stat) {
		if v, ok := strings.CutPrefix(f, "gen="); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("stat %q carries no gen=", stat)
}
