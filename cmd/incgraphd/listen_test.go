package main

// Port handoff for tests. Every daemon and hub a test starts binds
// 127.0.0.1:0 and announces the address it got in a "listening on" log
// line (listenedOn); the test reads the address from there — a child's
// stderr, or the standard logger an in-process daemon writes to — so no
// port is ever picked for a daemon and released before it binds.

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// logTap tees the standard logger to stderr and hands its listening lines
// to the tests waiting for them.
type logTap struct {
	mu   sync.Mutex
	subs map[chan string]bool
}

var (
	tap     = logTap{subs: make(map[chan string]bool)}
	tapOnce sync.Once
)

func (lt *logTap) Write(p []byte) (int, error) {
	os.Stderr.Write(p)
	if strings.Contains(string(p), "listening on ") {
		lt.mu.Lock()
		for ch := range lt.subs {
			select {
			case ch <- string(p):
			default:
			}
		}
		lt.mu.Unlock()
	}
	return len(p), nil
}

// watchListening subscribes to the listening lines the standard logger
// writes from now on, until unsubscribe (or the end of the test).
func watchListening(t *testing.T) (lines <-chan string, unsubscribe func()) {
	tapOnce.Do(func() { log.SetOutput(&tap) })
	// A daemon announces at most a handful of listeners, and a line that
	// finds the buffer full is dropped rather than block the logger.
	ch := make(chan string, 16)
	tap.mu.Lock()
	tap.subs[ch] = true
	tap.mu.Unlock()
	unsubscribe = func() {
		tap.mu.Lock()
		delete(tap.subs, ch)
		tap.mu.Unlock()
	}
	t.Cleanup(unsubscribe)
	return ch, unsubscribe
}

// serveInProcess runs serve on its own goroutine until the returned stop is
// called (also at cleanup), and returns the addresses it announced: the
// line protocol's, and the hub's when it runs one. serve's listeners must
// bind 127.0.0.1:0.
func serveInProcess(t *testing.T, serve func(stop <-chan struct{}) error) (addr, hubAddr string, stop func()) {
	t.Helper()
	listening, stop := startInProcess(t, serve)
	addr, hubAddr = listening()
	return addr, hubAddr, stop
}

// startInProcess is serveInProcess without the wait: it returns at once,
// and listening waits for the addresses serve announces (call it once, on
// the test's goroutine).
func startInProcess(t *testing.T, serve func(stop <-chan struct{}) error) (listening func() (addr, hubAddr string), stop func()) {
	t.Helper()
	lines, unsubscribe := watchListening(t)
	ch := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- serve(ch) }()
	var addr string
	listening = func() (_, hubAddr string) {
		t.Helper()
		defer unsubscribe()
		timeout := time.After(30 * time.Second)
		for addr == "" {
			select {
			case line := <-lines:
				if a, ok := listenedOn(line, "hub"); ok {
					hubAddr = a
				}
				if a, ok := listenedOn(line, ""); ok {
					addr = a
				}
			case err := <-done:
				done <- err // for stop
				t.Fatalf("daemon exited before listening: %v", err)
			case <-timeout:
				t.Fatal("daemon not listening after 30s")
			}
		}
		return addr, hubAddr
	}
	stop = sync.OnceFunc(func() {
		close(ch)
		if err := <-done; err != nil {
			t.Errorf("daemon on %s: %v", addr, err)
		}
	})
	t.Cleanup(stop)
	return listening, stop
}

// startProc starts bin with args, copies its log to stderr, and returns
// once it has announced an address for each of kinds, in kinds' order.
func startProc(t *testing.T, bin string, args []string, kinds ...string) (*exec.Cmd, []string) {
	t.Helper()
	logs, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		logs.Close()
		t.Fatal(err)
	}
	addrs, err := announced(logs, 30*time.Second, kinds...)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return cmd, addrs
}

// startDaemon starts a daemon (its -addr 127.0.0.1:0) and returns it with
// the line-protocol address it announced.
func startDaemon(t *testing.T, bin string, args []string) (*exec.Cmd, string) {
	t.Helper()
	cmd, addrs := startProc(t, bin, args, "")
	return cmd, addrs[0]
}

// announced copies a child's log to stderr line by line until it ends,
// and returns, as soon as they have all arrived, the addresses its
// listening lines (see listenedOn) announced for kinds, in kinds' order.
func announced(logs io.ReadCloser, timeout time.Duration, kinds ...string) ([]string, error) {
	addrs := make([]string, len(kinds))
	found := make(chan struct{})
	go func() {
		defer logs.Close()
		left := len(kinds)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			for i, kind := range kinds {
				if addr, ok := listenedOn(sc.Text(), kind); ok && left > 0 && addrs[i] == "" {
					addrs[i] = addr
					if left--; left == 0 {
						close(found)
					}
				}
			}
		}
		if left > 0 {
			close(found)
		}
	}()
	select {
	case <-found:
		for i, addr := range addrs {
			if addr == "" {
				return nil, fmt.Errorf("exited before announcing its %q address", kinds[i])
			}
		}
		return addrs, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("no address announced within %v", timeout)
	}
}

// listenedOn parses a "[hub ]listening on ADDR ..." log line — how both
// listeners of the daemon announce the address they bound — and returns
// ADDR when the line is kind's: "" for the line protocol, "hub" for the
// standby feed.
func listenedOn(line, kind string) (string, bool) {
	before, after, ok := strings.Cut(line, "listening on ")
	if !ok {
		return "", false
	}
	got := ""
	if f := strings.Fields(before); len(f) > 0 && f[len(f)-1] == "hub" {
		got = "hub"
	}
	addr := strings.Fields(after)
	if len(addr) == 0 || got != kind {
		return "", false
	}
	return addr[0], true
}
