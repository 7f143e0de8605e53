package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
	"incgraph/internal/store"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(p), err)
		}
	}
	for _, p := range payloads {
		got, err := readFrame(&buf, maxFrame)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: got %d bytes, want %d", len(got), len(p))
		}
	}
	if _, err := readFrame(&buf, maxFrame); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func frameBytes(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameTornHeader(t *testing.T) {
	raw := frameBytes(t, []byte("payload"))
	for cut := 1; cut < frameHeaderSize; cut++ {
		_, err := readFrame(bytes.NewReader(raw[:cut]), maxFrame)
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("torn header at %d: got %v, want ErrFrame", cut, err)
		}
	}
}

func TestFrameTornPayload(t *testing.T) {
	raw := frameBytes(t, []byte("payload"))
	for cut := frameHeaderSize; cut < len(raw); cut++ {
		_, err := readFrame(bytes.NewReader(raw[:cut]), maxFrame)
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("torn payload at %d: got %v, want ErrFrame", cut, err)
		}
	}
}

func TestFrameOversized(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	_, err := readFrame(bytes.NewReader(hdr), maxFrame)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized length: got %v, want ErrFrame", err)
	}
	if err := writeFrame(io.Discard, make([]byte, maxFrame+1)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized write: got %v, want ErrFrame", err)
	}
}

func TestFrameCorruptCRC(t *testing.T) {
	raw := frameBytes(t, []byte("payload"))
	// Flip one payload bit: the CRC must catch it.
	raw[len(raw)-1] ^= 0x01
	_, err := readFrame(bytes.NewReader(raw), maxFrame)
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupt payload: got %v, want ErrFrame", err)
	}
	// Flip a CRC bit with the payload intact: same verdict.
	raw = frameBytes(t, []byte("payload"))
	raw[5] ^= 0x80
	if _, err := readFrame(bytes.NewReader(raw), maxFrame); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupt CRC field: got %v, want ErrFrame", err)
	}
	// Sanity: the CRC in a clean frame actually covers the payload.
	raw = frameBytes(t, []byte("payload"))
	if crc := binary.LittleEndian.Uint32(raw[4:]); crc != crc32.ChecksumIEEE([]byte("payload")) {
		t.Fatalf("frame CRC %08x does not cover payload", crc)
	}
}

// hubMessages are one real encoding of every message a standby feed
// carries: the tail request, its response with a snapshot, a fed record,
// a heartbeat and an ack.
func hubMessages(tb testing.TB) [][]byte {
	tb.Helper()
	g := gen.Synthetic(gen.GraphSpec{Nodes: 6, Edges: 10, Labels: 3, Seed: 5})
	var snap bytes.Buffer
	if err := store.WriteSnapshot(&snap, g); err != nil {
		tb.Fatal(err)
	}
	rec, err := store.EncodeRecord(4, 9, graph.Batch{graph.InsNew(100, 101, "a", "b"), graph.Del(100, 101)})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		encodeTailReq(),
		encodeTailResp(2, 4, 9, snap.Bytes()),
		encodeFeed(10, rec),
		encodePing(2),
		{byte(msgOK)},
	}
}

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzHubMessages reads a byte stream as the standby feed's peers do —
// frames under the hub's pre-handshake cap and under maxFrame — and hands
// every frame's body to each hub message decoder. Nothing may panic;
// every error is ErrFrame or ErrProtocol (io.EOF only at a clean end); an
// accepted frame and an accepted message re-encode to the bytes they were
// read from; and a frame costs at most its cap, and about four times the
// bytes the stream actually holds, however large a length it claims.
func FuzzHubMessages(f *testing.F) {
	var stream bytes.Buffer
	for _, m := range hubMessages(f) {
		var frame bytes.Buffer
		if err := writeFrame(&frame, m); err != nil {
			f.Fatal(err)
		}
		for n := 0; n <= frame.Len(); n++ {
			f.Add(frame.Bytes()[:n])
		}
		stream.Write(frame.Bytes())
	}
	f.Add(stream.Bytes())
	// A header that claims most of maxFrame over a short body.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, maxFrame-1), 0, 0, 0, 0, 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []uint32{preHelloMaxFrame, maxFrame} {
			r := bytes.NewReader(data)
			for {
				off, avail := len(data)-r.Len(), uint64(r.Len())
				var payload []byte
				var err error
				used := allocated(func() { payload, err = readFrame(r, limit) })
				if bound := min(uint64(limit), 4*avail+2*frameChunk) + 4096; used > bound {
					t.Fatalf("a frame read from %d bytes under cap %d allocated %d, want ≤ %d", avail, limit, used, bound)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					if !errors.Is(err, ErrFrame) {
						t.Fatalf("readFrame: %v is not ErrFrame", err)
					}
					break
				}
				var frame bytes.Buffer
				if err := writeFrame(&frame, payload); err != nil {
					t.Fatal(err)
				}
				if read := data[off : len(data)-r.Len()]; !bytes.Equal(frame.Bytes(), read) {
					t.Fatalf("frame re-encodes to %x, read from %x", frame.Bytes(), read)
				}
				if len(payload) > 0 {
					checkHubDecoders(t, payload[1:])
				}
			}
		}
	})
}

// checkHubDecoders runs every hub message decoder over one message body:
// errors must be ErrProtocol, and an accepted body must re-encode to itself.
func checkHubDecoders(t *testing.T, body []byte) {
	t.Helper()
	accepted := func(name string, err error, encoded []byte) {
		t.Helper()
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s: %v is not ErrProtocol", name, err)
			}
			return
		}
		if !bytes.Equal(encoded[1:], body) {
			t.Fatalf("%s: accepted %x, re-encodes to %x", name, body, encoded[1:])
		}
	}
	version, err := decodeTailReq(&reader{buf: body})
	req := encodeTailReq()
	binary.LittleEndian.PutUint32(req[1:], version)
	accepted("decodeTailReq", err, req)

	term, seq, gen, snap, err := decodeTailResp(&reader{buf: body})
	accepted("decodeTailResp", err, encodeTailResp(term, seq, gen, snap))

	postGen, rec, err := decodeFeed(&reader{buf: body})
	accepted("decodeFeed", err, encodeFeed(postGen, rec))

	term, err = decodePing(&reader{buf: body})
	accepted("decodePing", err, encodePing(term))
}
