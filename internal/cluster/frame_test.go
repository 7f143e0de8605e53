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

// replyFrame returns one msgOK reply carrying body, as send writes it.
func replyFrame(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := send(&buf, append(appendMsg(nil, msgOK), body...)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readsAsBadFrame reports whether readReply refuses raw with ErrFrame.
func readsAsBadFrame(t *testing.T, raw []byte) bool {
	t.Helper()
	_, _, err := readReply(bytes.NewReader(raw), nil)
	return errors.Is(err, ErrFrame)
}

func TestFrameTornHeader(t *testing.T) {
	raw := replyFrame(t, []byte("payload"))
	for cut := 0; cut < store.FrameHeaderSize; cut++ {
		if !readsAsBadFrame(t, raw[:cut]) {
			t.Fatalf("reply torn in its header at %d: not ErrFrame", cut)
		}
	}
}

func TestFrameTornPayload(t *testing.T) {
	raw := replyFrame(t, []byte("payload"))
	for cut := store.FrameHeaderSize; cut < len(raw); cut++ {
		if !readsAsBadFrame(t, raw[:cut]) {
			t.Fatalf("reply torn in its payload at %d: not ErrFrame", cut)
		}
	}
}

func TestFrameOversized(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, store.MaxFrame+1)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if !readsAsBadFrame(t, hdr) {
		t.Fatal("reply whose length passes store.MaxFrame: not ErrFrame")
	}
	huge := appendMsg(make([]byte, 0, store.FrameHeaderSize+store.MaxFrame+1), msgOK)
	if err := send(io.Discard, huge[:store.FrameHeaderSize+store.MaxFrame+1]); !errors.Is(err, ErrFrame) {
		t.Fatalf("sending a payload past store.MaxFrame: got %v, want ErrFrame", err)
	}
}

func TestFrameCorruptCRC(t *testing.T) {
	// Flip one payload bit: the CRC must catch it.
	raw := replyFrame(t, []byte("payload"))
	raw[len(raw)-1] ^= 0x01
	if !readsAsBadFrame(t, raw) {
		t.Fatal("reply with a flipped payload bit: not ErrFrame")
	}
	// Flip a CRC bit with the payload intact: same verdict.
	raw = replyFrame(t, []byte("payload"))
	raw[5] ^= 0x80
	if !readsAsBadFrame(t, raw) {
		t.Fatal("reply with a flipped CRC bit: not ErrFrame")
	}
	// Sanity: the CRC in a clean frame covers the whole payload, type byte
	// and body.
	raw = replyFrame(t, []byte("payload"))
	if crc := binary.LittleEndian.Uint32(raw[4:]); crc != crc32.ChecksumIEEE(raw[store.FrameHeaderSize:]) {
		t.Fatalf("frame CRC %08x does not cover the payload", crc)
	}
	if _, _, err := readReply(bytes.NewReader(raw), nil); err != nil {
		t.Fatalf("clean reply: %v", err)
	}
}

// hubMessages are one real encoding of every message a standby feed
// carries, each a sealed frame: the tail request, its response with a
// snapshot, a fed record, a heartbeat and an ack.
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
	msgs := [][]byte{
		encodeTailReq(),
		encodeTailResp(2, 4, 9, snap.Bytes()),
		encodeFeed(10, rec),
		encodePing(2),
		appendMsg(nil, msgOK),
	}
	for _, m := range msgs {
		if err := store.SealFrame(m, ErrFrame); err != nil {
			tb.Fatal(err)
		}
	}
	return msgs
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
// frames under the hub's pre-handshake cap and under store.MaxFrame — and hands
// every frame's body to each hub message decoder. Nothing may panic;
// every error is ErrFrame or ErrProtocol (io.EOF only at a clean end); an
// accepted frame and an accepted message re-encode to the bytes they were
// read from; and a frame costs at most its cap, and about four times the
// bytes the stream actually holds, however large a length it claims.
func FuzzHubMessages(f *testing.F) {
	// The reader's first allocation for a payload: store's frameStep.
	const frameStep = 64 << 10
	var stream bytes.Buffer
	for _, frame := range hubMessages(f) {
		for n := 0; n <= len(frame); n++ {
			f.Add(frame[:n])
		}
		stream.Write(frame)
	}
	f.Add(stream.Bytes())
	// A header that claims most of store.MaxFrame over a short body.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, store.MaxFrame-1), 0, 0, 0, 0, 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []uint32{preHelloMaxFrame, store.MaxFrame} {
			r := bytes.NewReader(data)
			for {
				off, avail := len(data)-r.Len(), uint64(r.Len())
				var payload []byte
				var err error
				used := allocated(func() { payload, err = store.ReadFrame(r, nil, limit, ErrFrame) })
				if bound := min(uint64(limit), 4*avail+2*frameStep) + 4096; used > bound {
					t.Fatalf("a frame read from %d bytes under cap %d allocated %d, want ≤ %d", avail, limit, used, bound)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					if !errors.Is(err, ErrFrame) {
						t.Fatalf("ReadFrame: %v is not ErrFrame", err)
					}
					break
				}
				frame := append(make([]byte, store.FrameHeaderSize), payload...)
				if err := store.SealFrame(frame, ErrFrame); err != nil {
					t.Fatal(err)
				}
				if read := data[off : len(data)-r.Len()]; !bytes.Equal(frame, read) {
					t.Fatalf("frame re-encodes to %x, read from %x", frame, read)
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
	const bodyAt = store.FrameHeaderSize + 1 // a message's body follows its header and type byte
	accepted := func(name string, err error, encoded []byte) {
		t.Helper()
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s: %v is not ErrProtocol", name, err)
			}
			return
		}
		if !bytes.Equal(encoded[bodyAt:], body) {
			t.Fatalf("%s: accepted %x, re-encodes to %x", name, body, encoded[bodyAt:])
		}
	}
	version, err := decodeTailReq(store.NewReader(body, ErrProtocol))
	req := encodeTailReq()
	binary.LittleEndian.PutUint32(req[bodyAt:], version)
	accepted("decodeTailReq", err, req)

	term, seq, gen, snap, err := decodeTailResp(store.NewReader(body, ErrProtocol))
	accepted("decodeTailResp", err, encodeTailResp(term, seq, gen, snap))

	postGen, rec, err := decodeFeed(store.NewReader(body, ErrProtocol))
	accepted("decodeFeed", err, encodeFeed(postGen, rec))

	term, err = decodePing(store.NewReader(body, ErrProtocol))
	accepted("decodePing", err, encodePing(term))
}
