package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opTimeout is the client's budget per protocol operation: a reply that
// takes longer is a hang and counts as a failed operation.
const opTimeout = 10 * time.Second

// startTimeout bounds the wait for a daemon to come up.
const startTimeout = 60 * time.Second

// repoRoot finds the repository root — the directory holding
// BENCHMARK.json — from the working directory upwards, so the benchmark
// runs from the root (perf/run.sh) and from perf/ (go -C perf run .).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/incgraphd from source into .bench_build.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "incgraphd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/incgraphd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/incgraphd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running incgraphd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// logDone is closed when the stderr reader has drained the pipe.
	logDone chan struct{}
}

// startDaemon execs the daemon and returns once it answered "health" with
// ok. The daemon listens only after snapshot load (or recovery), engine
// builds and shard placement are done, so exec → first ok covers them all.
// Its log goes to logPath.
func startDaemon(ctx context.Context, bin string, args []string, logPath string) (*daemon, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Killed when ctx is cancelled (SIGINT or SIGTERM to perf).
	cmd := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		defer logFile.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			// "listening on ADDR" is the serving socket; workers and the
			// hub announce themselves with a qualifier in front.
			if i := strings.Index(line, " listening on "); i >= 0 && !strings.Contains(line, "worker listening") && !strings.Contains(line, "hub listening") {
				select {
				case addrCh <- strings.TrimSpace(line[i+len(" listening on "):]):
				default:
				}
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			d.kill()
			return nil, fmt.Errorf("daemon exited before listening (see %s)", logPath)
		}
		d.addr = addr
	case <-time.After(startTimeout):
		d.kill()
		return nil, fmt.Errorf("daemon not listening after %v (see %s)", startTimeout, logPath)
	}
	if _, err := ask(d.addr, "health"); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// kill SIGKILLs the daemon — a process crash, not a power loss: the page
// cache survives — and waits until it has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.logDone
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime is the daemon's user + system time.
func (d *daemon) cpuTime() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * clockTick
}

// peakRSSMB is VmHWM, the daemon's peak resident set.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// selfCPU is this process's user + system time: the load generator's cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
