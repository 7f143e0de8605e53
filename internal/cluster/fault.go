package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Deterministic fault injection. A FaultScript wraps connections in a
// frame-aware shim that can drop, delay, duplicate, or sever specific
// frames — matched by direction, frame index, and message type — so every
// failure mode the HA layer claims to survive is exercised in-process,
// and reproducibly: the script records an event log of every fault it
// fired, and a drill run twice from the same seed over the same traffic
// produces identical logs (the CI chaos job's determinism pin).
//
// The shim parses the byte stream back into frames (writeFrame emits
// header and payload as separate writes, and TCP may fragment anyway),
// applies the first matching rule per frame, and forwards the survivors.
// Dropping a request or response leaves the peer waiting — pair drills
// with a short CoordinatorOptions.CallTimeout so the timeout-and-resync
// path runs in milliseconds.

// FaultDir selects which direction of a wrapped connection a rule
// watches, from the wrapping side's point of view.
type FaultDir int

const (
	// FaultOut matches frames written by the wrapped side (requests, on a
	// coordinator's link).
	FaultOut FaultDir = iota
	// FaultIn matches frames read by the wrapped side (responses).
	FaultIn
)

func (d FaultDir) String() string {
	if d == FaultOut {
		return "out"
	}
	return "in"
}

// FaultAction is what a matching rule does to the frame.
type FaultAction int

const (
	// FaultDrop swallows the frame; the peer never sees it.
	FaultDrop FaultAction = iota
	// FaultDelay forwards the frame after Delay.
	FaultDelay
	// FaultDup forwards the frame twice, desynchronizing the strict
	// request/response stream.
	FaultDup
	// FaultSever closes the connection at this frame.
	FaultSever
)

// Message selectors for FaultRule.Msg: the protocol's type bytes, named
// so drills outside this package can match on them without learning the
// wire encoding.
const (
	FaultMsgHello = byte(msgHello)
	FaultMsgPlace = byte(msgPlace)
	FaultMsgApply = byte(msgApply)
	FaultMsgTail  = byte(msgTail)
	FaultMsgFeed  = byte(msgFeed)
	FaultMsgPing  = byte(msgPing)
)

func (a FaultAction) String() string {
	switch a {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "dup"
	case FaultSever:
		return "sever"
	default:
		return "unknown"
	}
}

// FaultRule matches frames on a wrapped connection. The zero values of
// the match fields are wildcards where noted.
type FaultRule struct {
	Dir FaultDir
	// Frame matches the direction-relative frame index (0-based) on the
	// connection; -1 matches every frame.
	Frame int
	// Msg matches the payload's leading message-type byte; 0 matches any.
	Msg byte
	// Prob, when in (0,1), fires the rule with that probability from the
	// script's seeded source; 0 and 1 both mean "always".
	Prob   float64
	Action FaultAction
	// Delay is the hold time for FaultDelay.
	Delay time.Duration
	// Count limits how many times the rule fires (0 = unlimited).
	Count int
}

// FaultScript is a seeded set of rules plus the event log of every fault
// fired. One script may wrap several connections; frame indexes are per
// connection and direction, events interleave in firing order.
type FaultScript struct {
	Seed  int64
	Rules []FaultRule

	mu     sync.Mutex
	rng    *rand.Rand
	fired  []int
	events []string
	nconns int
}

// NewFaultScript builds a script from rules.
func NewFaultScript(seed int64, rules ...FaultRule) *FaultScript {
	return &FaultScript{Seed: seed, Rules: rules}
}

// Events returns a copy of the fault log: one "conn#c dir#frame msg action"
// line per fired fault, in firing order.
func (s *FaultScript) Events() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.events...)
}

// Wrap returns conn shimmed through the script. Wrap the side whose
// traffic the rules describe (the coordinator's end of a link, usually).
func (s *FaultScript) Wrap(conn net.Conn) net.Conn {
	s.mu.Lock()
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.Seed))
		s.fired = make([]int, len(s.Rules))
	}
	id := s.nconns
	s.nconns++
	s.mu.Unlock()
	return &faultConn{Conn: conn, script: s, id: id}
}

// WrapLink shims a coordinator link — its live connection and its redial
// path — through the script.
func (s *FaultScript) WrapLink(l Link) Link {
	l.Conn = s.Wrap(l.Conn)
	if redial := l.Redial; redial != nil {
		l.Redial = func() (net.Conn, error) {
			conn, err := redial()
			if err != nil {
				return nil, err
			}
			return s.Wrap(conn), nil
		}
	}
	return l
}

// match finds the first applicable rule for a frame and logs the fault.
// It returns the action to take and whether any rule fired.
func (s *FaultScript) match(connID int, dir FaultDir, frame int, msg byte) (FaultRule, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.Rules {
		if r.Dir != dir {
			continue
		}
		if r.Frame >= 0 && r.Frame != frame {
			continue
		}
		if r.Msg != 0 && r.Msg != msg {
			continue
		}
		if r.Count > 0 && s.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && s.rng.Float64() >= r.Prob {
			continue
		}
		s.fired[i]++
		s.events = append(s.events,
			fmt.Sprintf("conn#%d %s#%d %s %s", connID, dir, frame, msgName(msg), r.Action))
		return r, true
	}
	return FaultRule{}, false
}

// msgName labels a message-type byte in event logs.
func msgName(b byte) string {
	switch msgType(b) {
	case msgHello:
		return "hello"
	case msgPlace:
		return "place"
	case msgDrop:
		return "drop"
	case msgApply:
		return "apply"
	case msgExport:
		return "export"
	case msgOK:
		return "ok"
	case msgErr:
		return "err"
	case msgTail:
		return "tail"
	case msgFeed:
		return "feed"
	case msgPing:
		return "ping"
	default:
		return fmt.Sprintf("type%d", b)
	}
}

// frameParser accumulates a byte stream and yields complete frames
// (header + payload, as written).
type frameParser struct {
	buf []byte
}

// next returns the first complete frame in the buffer, or nil.
func (p *frameParser) next() []byte {
	if len(p.buf) < frameHeaderSize {
		return nil
	}
	length := binary.LittleEndian.Uint32(p.buf[:4])
	total := frameHeaderSize + int(length)
	if len(p.buf) < total {
		return nil
	}
	frame := p.buf[:total:total]
	p.buf = p.buf[total:]
	return frame
}

// faultConn is one wrapped connection. Reads and writes each have their
// own parser and frame counter; the shim assumes one writer per
// direction, like the protocol itself.
type faultConn struct {
	net.Conn
	script *FaultScript
	id     int

	out      frameParser
	outFrame int
	in       frameParser
	inFrame  int
	// inReady holds post-fault bytes awaiting delivery to Read.
	inReady []byte
}

// apply runs one frame through the rules and returns the bytes to
// forward (nil to swallow) or an error to sever with.
func (c *faultConn) apply(dir FaultDir, frameIdx int, frame []byte) ([]byte, error) {
	var msg byte
	if len(frame) > frameHeaderSize {
		msg = frame[frameHeaderSize]
	}
	rule, ok := c.script.match(c.id, dir, frameIdx, msg)
	if !ok {
		return frame, nil
	}
	switch rule.Action {
	case FaultDrop:
		return nil, nil
	case FaultDelay:
		time.Sleep(rule.Delay)
		return frame, nil
	case FaultDup:
		return append(append([]byte(nil), frame...), frame...), nil
	case FaultSever:
		c.Conn.Close()
		return nil, fmt.Errorf("cluster: fault: severed at %s frame %d", dir, frameIdx)
	default:
		return frame, nil
	}
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.out.buf = append(c.out.buf, p...)
	for {
		frame := c.out.next()
		if frame == nil {
			return len(p), nil
		}
		idx := c.outFrame
		c.outFrame++
		fwd, err := c.apply(FaultOut, idx, frame)
		if err != nil {
			return 0, err
		}
		if len(fwd) == 0 {
			continue
		}
		if _, err := c.Conn.Write(fwd); err != nil {
			return 0, err
		}
	}
}

func (c *faultConn) Read(p []byte) (int, error) {
	for len(c.inReady) == 0 {
		chunk := make([]byte, 64<<10)
		n, err := c.Conn.Read(chunk)
		if n > 0 {
			c.in.buf = append(c.in.buf, chunk[:n]...)
			for {
				frame := c.in.next()
				if frame == nil {
					break
				}
				idx := c.inFrame
				c.inFrame++
				fwd, ferr := c.apply(FaultIn, idx, frame)
				if ferr != nil {
					return 0, ferr
				}
				c.inReady = append(c.inReady, fwd...)
			}
		}
		if err != nil {
			if len(c.inReady) > 0 {
				break
			}
			return 0, err
		}
	}
	n := copy(p, c.inReady)
	c.inReady = c.inReady[n:]
	return n, nil
}
