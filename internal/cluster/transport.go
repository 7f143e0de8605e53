package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Transports. The protocol runs over any net.Conn; two constructions are
// provided: TCP for real deployments (Dial, with a redial path so the
// coordinator can reattach a restarted worker) and synchronous in-process
// pipes for deterministic tests and benchmarks (InProcess — no ports, no
// OS scheduling in the loop beyond goroutines).

// dialTimeout bounds one TCP connection attempt.
const dialTimeout = 5 * time.Second

// Dialer configures worker dialing: per-attempt timeout and a capped
// exponential backoff with jitter between redial attempts, so a worker
// that is restarting is retried quickly at first and gently afterwards —
// and a fleet of coordinators redialing the same worker does not
// stampede in lockstep. The zero value uses the defaults.
type Dialer struct {
	// Timeout bounds one connection attempt (default 5s).
	Timeout time.Duration
	// Attempts is the number of connection attempts per Redial call
	// (default 4): the first immediately, the rest after backoff.
	Attempts int
	// Backoff is the delay before the second attempt (default 100ms); it
	// doubles per attempt, capped at MaxBackoff (default 3s), with up to
	// 50% random jitter subtracted.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed fixes the jitter sequence for deterministic tests; 0 derives
	// one from the address.
	Seed int64

	retries atomic.Uint64
}

func (d *Dialer) timeout() time.Duration {
	if d.Timeout > 0 {
		return d.Timeout
	}
	return dialTimeout
}

func (d *Dialer) attempts() int {
	if d.Attempts > 0 {
		return d.Attempts
	}
	return 4
}

func (d *Dialer) backoff() (base, cap time.Duration) {
	base, cap = d.Backoff, d.MaxBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = 3 * time.Second
	}
	return base, cap
}

// Retries returns the cumulative connection attempt count.
func (d *Dialer) Retries() uint64 { return d.retries.Load() }

// Dial connects to addr, retrying with backoff, and returns a redialable
// Link wired to the same policy.
func (d *Dialer) Dial(addr string) (Link, error) {
	seed := d.Seed
	if seed == 0 {
		for _, b := range []byte(addr) {
			seed = seed*131 + int64(b)
		}
		seed++
	}
	rng := rand.New(rand.NewSource(seed))
	var rngMu sync.Mutex
	redial := func() (net.Conn, error) {
		base, max := d.backoff()
		delay := base
		var lastErr error
		for i := 0; i < d.attempts(); i++ {
			if i > 0 {
				rngMu.Lock()
				jitter := time.Duration(rng.Int63n(int64(delay)/2 + 1))
				rngMu.Unlock()
				time.Sleep(delay - jitter)
				delay *= 2
				if delay > max {
					delay = max
				}
			}
			d.retries.Add(1)
			conn, err := net.DialTimeout("tcp", addr, d.timeout())
			if err == nil {
				return conn, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, lastErr)
	}
	conn, err := redial()
	if err != nil {
		return Link{}, err
	}
	return Link{Conn: conn, Name: addr, Redial: redial}, nil
}

// Dial connects to a worker at addr and returns a redialable Link using
// the default Dialer policy.
func Dial(addr string) (Link, error) {
	d := &Dialer{}
	return d.Dial(addr)
}

// InProcess starts n workers, each served over a buffered in-memory
// pipe, and returns coordinator links for them. Redial is wired: closing a
// link's conn and redialing attaches a fresh pipe to the same worker
// (state intact), which is what the disconnect/reattach tests exercise.
// stop tears the serving goroutines down.
func InProcess(n int) (links []Link, workers []*Worker, stop func()) {
	var mu sync.Mutex
	var conns []net.Conn
	for i := 0; i < n; i++ {
		w := NewWorker()
		workers = append(workers, w)
		attach := func() (net.Conn, error) {
			client, server := BufferedPipe()
			go func() {
				defer server.Close()
				w.ServeConn(server)
			}()
			mu.Lock()
			conns = append(conns, client)
			mu.Unlock()
			return client, nil
		}
		conn, _ := attach()
		links = append(links, Link{Conn: conn, Name: fmt.Sprintf("local-%d", i), Redial: attach})
	}
	return links, workers, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// BufferedPipe is the in-process transport's conn pair: a duplex
// in-memory stream whose writes land in a buffer and return, like a
// loopback TCP socket's, instead of net.Pipe's synchronous rendezvous —
// which blocks every Write until the peer's Read arrives and so charges
// two scheduler handoffs per frame that no real socket pays. The
// protocol's latency over this pair is the protocol's own, not the
// rendezvous artifact's. Semantics kept from net.Conn: concurrent Read
// and Write, deadlines checked per call, Close of either end unblocks
// both (reads drain buffered data, then io.EOF; writes fail with
// io.ErrClosedPipe).
func BufferedPipe() (client, server net.Conn) {
	done := &pipeShared{done: make(chan struct{})}
	a := make(chan *[]byte, pipeDepth)
	b := make(chan *[]byte, pipeDepth)
	return &memConn{r: a, w: b, shared: done}, &memConn{r: b, w: a, shared: done}
}

// chunkPool recycles the pipe's write chunks: a reader returns each chunk
// once fully consumed, so a steady request/response exchange settles into
// zero allocations per frame — like a socket buffer, which is the thing
// being modeled. Chunks stranded in a closed pipe just fall to the GC.
var chunkPool = sync.Pool{New: func() any { return new([]byte) }}

func getChunk(n int) *[]byte {
	bp := chunkPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// pipeDepth is the per-direction chunk buffer: deep enough that a
// request/response protocol never blocks a writer, shallow enough that a
// runaway writer is eventually backpressured like a full socket buffer.
const pipeDepth = 256

// pipeShared carries the duplex pair's close signal: the first Close of
// either end fires it, and both ends observe it.
type pipeShared struct {
	once sync.Once
	done chan struct{}
}

type memConn struct {
	r, w   chan *[]byte
	shared *pipeShared

	mu       sync.Mutex
	rdl, wdl time.Time // zero = no deadline
	chunk    *[]byte   // chunk a Read partially consumed, pooled once drained
	leftover []byte    // its unread tail
}

func (c *memConn) deadlines() (rdl, wdl time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rdl, c.wdl
}

// expiry arms a timer for dl: a nil channel (never fires) when no
// deadline is set. Callers must stop the returned timer.
func expiry(dl time.Time) (<-chan time.Time, *time.Timer) {
	if dl.IsZero() {
		return nil, nil
	}
	t := time.NewTimer(time.Until(dl))
	return t.C, t
}

// consume copies a freshly received chunk into p, keeping any unread tail
// as leftover and pooling the chunk once it is fully drained.
func (c *memConn) consume(p []byte, bp *[]byte) int {
	n := copy(p, *bp)
	if n < len(*bp) {
		c.chunk, c.leftover = bp, (*bp)[n:]
		return n
	}
	chunkPool.Put(bp)
	return n
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.leftover) > 0 {
		n := copy(p, c.leftover)
		c.leftover = c.leftover[n:]
		if len(c.leftover) == 0 {
			chunkPool.Put(c.chunk)
			c.chunk = nil
		}
		return n, nil
	}
	// Fast path: buffered data beats both the close signal and the
	// deadline — a closed conn drains like a closed socket.
	select {
	case bp := <-c.r:
		return c.consume(p, bp), nil
	default:
	}
	rdl, _ := c.deadlines()
	tc, t := expiry(rdl)
	if t != nil {
		defer t.Stop()
	}
	select {
	case bp := <-c.r:
		return c.consume(p, bp), nil
	case <-c.shared.done:
		select {
		case bp := <-c.r:
			return c.consume(p, bp), nil
		default:
			return 0, io.EOF
		}
	case <-tc:
		return 0, os.ErrDeadlineExceeded
	}
}

func (c *memConn) Write(p []byte) (int, error) {
	select {
	case <-c.shared.done:
		return 0, io.ErrClosedPipe
	default:
	}
	// The chunk is copied: the frame writer reuses its buffer the moment
	// Write returns, which is exactly what buffering promises it may do.
	bp := getChunk(len(p))
	copy(*bp, p)
	_, wdl := c.deadlines()
	tc, t := expiry(wdl)
	if t != nil {
		defer t.Stop()
	}
	select {
	case c.w <- bp:
		return len(p), nil
	case <-c.shared.done:
		chunkPool.Put(bp)
		return 0, io.ErrClosedPipe
	case <-tc:
		chunkPool.Put(bp)
		return 0, os.ErrDeadlineExceeded
	}
}

func (c *memConn) Close() error {
	c.shared.once.Do(func() { close(c.shared.done) })
	return nil
}

func (c *memConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl, c.wdl = t, t
	c.mu.Unlock()
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	c.mu.Unlock()
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	c.mu.Unlock()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
