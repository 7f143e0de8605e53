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

// runFault runs the scenario's fault action at its scheduled time.
func runFault(sc *Scenario, env *runEnv, opts runOpts, stop <-chan struct{}, logf func(string, ...any)) (string, error) {
	select {
	case <-stop:
		return "", nil
	case <-time.After(time.Until(env.epoch.Add(time.Duration(sc.Fault.At)))):
	}
	if sc.Fault.Action != "failover" {
		return "", fmt.Errorf("unknown fault action %q", sc.Fault.Action)
	}
	return runFailover(env, opts, logf)
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
