package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// client is one connection speaking incgraphd's line protocol.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 1<<16)}, nil
}

func (c *client) close() { c.conn.Close() }

// readOK reads one reply line and requires it to be "ok ...".
func (c *client) readOK() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimRight(line, "\n")
	if !strings.HasPrefix(line, "ok") {
		return "", fmt.Errorf("daemon replied %q", line)
	}
	return line, nil
}

// roundTrip sends one command line and returns its "ok ..." reply line.
func (c *client) roundTrip(cmd string) (string, error) {
	c.conn.SetDeadline(time.Now().Add(opTimeout))
	if _, err := c.conn.Write([]byte(cmd + "\n")); err != nil {
		return "", err
	}
	return c.readOK()
}

// ask sends one command line on a connection of its own.
func ask(addr, cmd string) (string, error) {
	c, err := dial(addr)
	if err != nil {
		return "", err
	}
	defer c.close()
	reply, err := c.roundTrip(cmd)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cmd, err)
	}
	return reply, nil
}

// commitTimes are the client-side timings of one committed batch.
type commitTimes struct {
	// stage is first stage line written → last "ok staged" read; rtt is
	// the "commit" line alone; total is first stage line written →
	// "ok applied" read.
	stage, rtt, total time.Duration
}

// commit stages one batch (its rendered stage lines, n of them, in a single
// write), waits for the n acks, then sends "commit" and waits for
// "ok applied": the closed loop of a client that wants its ack.
func (c *client) commit(lines []byte, n int) (commitTimes, string, error) {
	c.conn.SetDeadline(time.Now().Add(opTimeout))
	start := time.Now()
	if _, err := c.conn.Write(lines); err != nil {
		return commitTimes{}, "", err
	}
	for i := 0; i < n; i++ {
		if _, err := c.readOK(); err != nil {
			return commitTimes{}, "", err
		}
	}
	staged := time.Now()
	if _, err := c.conn.Write([]byte("commit\n")); err != nil {
		return commitTimes{}, "", err
	}
	reply, err := c.readOK()
	if err != nil {
		return commitTimes{}, "", err
	}
	end := time.Now()
	if !strings.HasPrefix(reply, "ok applied ") {
		return commitTimes{}, "", fmt.Errorf("commit replied %q", reply)
	}
	return commitTimes{stage: staged.Sub(start), rtt: end.Sub(staged), total: end.Sub(start)}, reply, nil
}

// read times one read of class: "query CLASS", or with answer the full
// "answer CLASS" dump.
func (c *client) read(class string, answer bool) (time.Duration, error) {
	start := time.Now()
	var err error
	if answer {
		_, err = c.answer(class)
	} else {
		_, err = c.roundTrip("query " + class)
	}
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", class, err)
	}
	return time.Since(start), nil
}

// answer fetches the canonical answer dump of class.
func (c *client) answer(class string) ([]byte, error) {
	if _, err := c.roundTrip("answer " + class); err != nil {
		return nil, err
	}
	var dump bytes.Buffer
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if string(line) == ".\n" {
			return dump.Bytes(), nil
		}
		dump.Write(line)
	}
}

// fields parses the key=value fields of a stat or health reply.
func fields(reply string) map[string]string {
	out := make(map[string]string)
	for _, f := range strings.Fields(reply) {
		if k, v, ok := strings.Cut(f, "="); ok {
			out[k] = v
		}
	}
	return out
}

func fieldUint(m map[string]string, key string) (uint64, error) {
	v, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("reply has no field %q", key)
	}
	return strconv.ParseUint(v, 10, 64)
}

// deltaSizes sums |ΔO| per class over "ok applied" reply lines, whose
// per-class part reads "kws=ΔO{+a −b ~c}".
func deltaSizes(replies []string) map[string]int {
	out := make(map[string]int)
	for _, reply := range replies {
		class := ""
		for _, f := range strings.Fields(reply) {
			num := ""
			if c, rest, ok := strings.Cut(f, "=ΔO{+"); ok {
				class, num = c, rest
			} else if rest, ok := strings.CutPrefix(f, "−"); ok {
				num = rest
			} else if rest, ok := strings.CutPrefix(f, "~"); ok {
				num = strings.TrimSuffix(rest, "}")
			}
			if n, err := strconv.Atoi(num); err == nil && class != "" {
				out[class] += n
			}
		}
	}
	return out
}
