package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"time"

	"incgraph"
	"incgraph/internal/graph"
)

// Client is one connection speaking the protocol. Each write, and each
// reply (an answer's with its rows), must finish within the client's
// timeout (none when it is 0), or the call fails with a net.Error whose
// Timeout is true. An error reply fails a call with an *Error. One
// goroutine at a time makes calls; Send may also run on a second one.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	buf     []byte
	timeout time.Duration
}

// Dial connects to addr and returns a Client with the given timeout,
// which bounds the dial too.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, timeout), nil
}

// NewClient speaks the protocol over conn.
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, 1<<16), timeout: timeout}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Send writes text (lines, newlines included) and reads nothing, so a
// caller can pipeline requests.
func (c *Client) Send(text string) error { return c.write([]byte(text)) }

func (c *Client) write(b []byte) error {
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.conn.Write(b)
	return err
}

// ReadLine reads one reply line and returns it without its newline; an
// error reply comes back as an *Error too.
func (c *Client) ReadLine() (string, error) {
	if c.timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return line, err
	}
	line = line[:len(line)-1]
	if e, perr := ParseError(line); perr == nil {
		return line, e
	}
	return line, nil
}

// Do sends one request line and returns its reply line, as ReadLine does.
func (c *Client) Do(request string) (string, error) {
	if err := c.Send(request + "\n"); err != nil {
		return "", err
	}
	return c.ReadLine()
}

// Stage sends b's updates in one write and reads an ack for each. It
// returns the first error reply, having read every ack.
func (c *Client) Stage(b incgraph.Batch) error {
	c.buf = c.buf[:0]
	for _, u := range b {
		c.buf = graph.AppendUpdate(c.buf, u)
	}
	if err := c.write(c.buf); err != nil {
		return err
	}
	var first error
	var refused *Error
	for range b {
		line, err := c.ReadLine()
		if err == nil {
			_, err = ParseStaged(line)
		}
		if err != nil && !errors.As(err, &refused) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// Commit commits the staged batch and returns its ack.
func (c *Client) Commit() (Applied, error) { return call(c, "commit", ParseApplied) }

// Abort drops the staged batch and returns how many updates it held.
func (c *Client) Abort() (int, error) { return call(c, "abort", ParseAborted) }

// Query reads the size of class's answer.
func (c *Client) Query(class string) (Read, error) { return call(c, "query "+class, ParseRead) }

// Answer reads class's answer: the header, and the rows as the class's
// WriteAnswer writes them.
func (c *Client) Answer(class string) (Read, []byte, error) {
	h, err := call(c, "answer "+class, ParseRead)
	var rows bytes.Buffer
	for err == nil {
		var row string
		if row, err = c.r.ReadString('\n'); row == DumpEnd {
			return h, rows.Bytes(), nil
		}
		rows.WriteString(row)
	}
	return Read{}, nil, err
}

// Stat reads the daemon's counters.
func (c *Client) Stat() (Fields, error) { return call(c, "stat", ParseFields) }

// Health reads the daemon's role and position.
func (c *Client) Health() (Fields, error) { return call(c, "health", ParseFields) }

// Promote makes a standby the primary and returns its new term.
func (c *Client) Promote() (uint64, error) { return call(c, "promote", ParsePromoted) }

// Checkpoint snapshots the daemon's graph and returns the new epoch.
func (c *Client) Checkpoint() (uint64, error) { return call(c, "checkpoint", ParseCheckpoint) }

// Quit ends the session; the daemon hangs up after its ack.
func (c *Client) Quit() error {
	line, err := c.Do("quit")
	if err != nil {
		return err
	}
	return ParseBye(line)
}

// call sends request and parses its reply line.
func call[T any](c *Client, request string, parse func(string) (T, error)) (T, error) {
	line, err := c.Do(request)
	if err != nil {
		var zero T
		return zero, err
	}
	return parse(line)
}
