package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"incgraph/internal/wire"
)

// dial connects a protocol client to addr for the rest of the test.
func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// must calls f and fails the test on its error.
func must[T any](t *testing.T, f func() (T, error)) T {
	t.Helper()
	v, err := f()
	noErr(t, err)
	return v
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// query reads the size of class's answer.
func query(t *testing.T, c *wire.Client, class string) wire.Read {
	t.Helper()
	r, err := c.Query(class)
	noErr(t, err)
	return r
}

// answer returns class's answer rows.
func answer(t *testing.T, c *wire.Client, class string) string {
	t.Helper()
	_, rows, err := c.Answer(class)
	noErr(t, err)
	return string(rows)
}

// statField returns the integer field key of c's stat reply.
func statField(t *testing.T, c *wire.Client, key string) uint64 {
	t.Helper()
	v, err := must(t, c.Stat).Uint(key)
	noErr(t, err)
	return v
}

// refused sends request and requires an error reply that starts with want.
func refused(t *testing.T, c *wire.Client, request, want string) {
	t.Helper()
	line, err := c.Do(request)
	var e *wire.Error
	if !errors.As(err, &e) || !strings.HasPrefix(line, want) {
		t.Fatalf("%q replied %q (%v), want %q…", request, line, err, want)
	}
}

// expect reads one reply line and requires it, newline included, to start
// with want.
func expect(t *testing.T, c *wire.Client, want string) {
	t.Helper()
	line, err := c.ReadLine()
	if !strings.HasPrefix(line+"\n", want) {
		t.Fatalf("reply %q (%v), want %q…", line, err, want)
	}
}
