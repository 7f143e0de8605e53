package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"

	"incgraph/internal/wire"
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
		pGen, err := statGen(primary)
		if err != nil {
			return "", fmt.Errorf("drain: primary stat: %v", err)
		}
		sGen, err := statGen(opts.failoverAddr)
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
	for deadline = time.Now().Add(10 * time.Second); promoted == ""; {
		c, err := wire.Dial(opts.failoverAddr, 5*time.Second)
		var term uint64
		if err == nil {
			term, err = c.Promote()
			c.Close()
		}
		var refused *wire.Error
		switch {
		case err == nil:
			promoted = fmt.Sprintf("promoted at term %d", term)
		case errors.As(err, &refused) && refused.Category == wire.Fenced && strings.Contains(refused.Detail, "already primary"):
			promoted = "already primary" // a retried promote raced its own success
		case time.Now().After(deadline):
			return "", fmt.Errorf("promote: %v", err)
		default:
			time.Sleep(100 * time.Millisecond)
		}
	}
	env.book.set(opts.failoverAddr)
	logf("failover complete: %s now serves at %s", promoted, opts.failoverAddr)
	return fmt.Sprintf("failover: killed %s, %s", primary, promoted), nil
}

// stat reads a daemon's counters on a connection of its own.
func stat(addr string) (wire.Fields, error) {
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stat()
}

// statGen reads gen= from a daemon's stat.
func statGen(addr string) (uint64, error) {
	st, err := stat(addr)
	if err != nil {
		return 0, err
	}
	return st.Uint("gen")
}
