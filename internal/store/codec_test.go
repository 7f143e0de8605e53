package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"testing"
)

var errTestFrame = errors.New("test: bad frame")

// sealed returns payload as one sealed frame.
func sealed(tb testing.TB, payload []byte) []byte {
	frame := append(make([]byte, FrameHeaderSize), payload...)
	if err := SealFrame(frame, errTestFrame); err != nil {
		tb.Fatal(err)
	}
	return frame
}

func TestFrameRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	payloads := [][]byte{{}, {1}, []byte("hello"), make([]byte, frameStep), bytes.Repeat([]byte{0xAB}, 3*frameStep+5)}
	for _, p := range payloads {
		stream.Write(sealed(t, p))
	}
	for _, p := range payloads {
		if got, err := ReadFrame(&stream, nil, MaxFrame, errTestFrame); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("read %d bytes (%v), want %d", len(got), err, len(p))
		}
	}
	if _, err := ReadFrame(&stream, nil, MaxFrame, errTestFrame); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	frame := sealed(t, []byte("payload"))
	if n, crc := binary.LittleEndian.Uint32(frame), binary.LittleEndian.Uint32(frame[4:]); n != 7 || crc != crc32.ChecksumIEEE([]byte("payload")) {
		t.Fatalf("header says length %d, CRC %08x", n, crc)
	}
}

// TestFrameRejects: a frame cut anywhere, one whose length passes the
// reader's cap, and one with a flipped payload or CRC bit are refused with
// the caller's sentinel; so is sealing a payload past MaxFrame.
func TestFrameRejects(t *testing.T) {
	good := sealed(t, []byte("payload"))
	flip := func(i int) []byte {
		bad := bytes.Clone(good)
		bad[i] ^= 0x10
		return bad
	}
	rows := map[string][]byte{
		"past MaxFrame":     binary.LittleEndian.AppendUint32(nil, MaxFrame+1),
		"corrupt payload":   flip(len(good) - 1),
		"corrupt CRC field": flip(5),
	}
	for cut := 1; cut < len(good); cut++ {
		rows[fmt.Sprintf("cut at %d", cut)] = good[:cut]
	}
	for name, frame := range rows {
		if _, err := ReadFrame(bytes.NewReader(frame), nil, MaxFrame, errTestFrame); !errors.Is(err, errTestFrame) {
			t.Errorf("%s: got %v, want the caller's sentinel", name, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(good), nil, 6, errTestFrame); !errors.Is(err, errTestFrame) {
		t.Errorf("past the caller's cap: got %v, want the caller's sentinel", err)
	}
	if err := SealFrame(make([]byte, FrameHeaderSize+MaxFrame+1), errTestFrame); !errors.Is(err, errTestFrame) {
		t.Errorf("sealing past MaxFrame: got %v, want the caller's sentinel", err)
	}
}

// TestWarmPathsAllocateNothing pins two contracts of the codec's hot
// paths: a warm WAL append of a labelled batch builds its frame in the
// log's scratch and writes it in one Write, and a frame read into a buffer
// that holds it lands there, header and payload.
func TestWarmPathsAllocateNothing(t *testing.T) {
	w, err := CreateWAL(nil, filepath.Join(t.TempDir(), "wal.log"), 0, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b := walBatches()[2]
	raw := sealed(t, bytes.Repeat([]byte("payload"), 20))
	buf, r := make([]byte, 0, 256), bytes.NewReader(raw)
	for name, run := range map[string]func() error{
		"a WAL append of a labelled batch": func() error { return w.Append(b, 1) },
		"a frame read into a large enough buffer": func() error {
			r.Reset(raw)
			_, err := ReadFrame(r, buf, MaxFrame, errTestFrame)
			return err
		},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, allocs)
		}
	}
}
