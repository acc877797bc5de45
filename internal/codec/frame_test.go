package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		[]byte("hello"),
		bytes.Repeat([]byte{0xab}, 1<<16),
	}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, p := range payloads {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x00},
		[]byte("hello"),
		bytes.Repeat([]byte{0xab}, 1<<12),
	}
	for i, p := range payloads {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
		got := AppendFrame([]byte("prefix"), p)
		if !bytes.Equal(got, append([]byte("prefix"), buf.Bytes()...)) {
			t.Fatalf("payload %d: AppendFrame diverges from WriteFrame", i)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	buf.Write(hdr[:])
	if _, err := ReadFrame(&buf, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length prefix: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, []byte("truncate me please")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	whole := full.Bytes()
	// Every proper prefix must error: io.EOF only at the empty boundary,
	// io.ErrUnexpectedEOF (or a header short-read) everywhere else.
	for cut := 0; cut < len(whole); cut++ {
		_, err := ReadFrame(bytes.NewReader(whole[:cut]), 0)
		if err == nil {
			t.Fatalf("cut=%d: truncated frame decoded without error", cut)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("cut=0: got %v, want io.EOF", err)
		}
	}
}

func TestFrameChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("integrity")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()
	// Flip one payload byte: the checksum must catch it.
	raw[5] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("corrupted payload: got %v, want ErrFrameChecksum", err)
	}
}

// FuzzShardFrameRoundTrip drives the shard wire framing with arbitrary
// bytes in both roles: as a payload (round-trip must be exact) and as a raw
// stream (ReadFrame must error — never panic, never over-allocate — on
// malformed length prefixes and truncated payloads).
func FuzzShardFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{})
	f.Add([]byte("payload"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add(bytes.Repeat([]byte{0x41}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Role 1: data is a payload.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, data); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf, len(data)+1)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mutated payload: %d bytes in, %d out", len(data), len(got))
		}

		// Role 2: data is a hostile raw stream. Any outcome but a panic or
		// a runaway allocation is fine; a successful decode must carry a
		// payload consistent with the stream length.
		frame, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err == nil && len(frame) > len(data) {
			t.Fatalf("decoded %d payload bytes from a %d-byte stream", len(frame), len(data))
		}

		// Role 3: every truncation of a valid frame errors.
		var rebuilt bytes.Buffer
		if err := WriteFrame(&rebuilt, data); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		whole := rebuilt.Bytes()
		if len(whole) > 1 {
			if _, err := ReadFrame(bytes.NewReader(whole[:len(whole)-1]), 0); err == nil {
				t.Fatal("truncated frame decoded without error")
			}
		}
	})
}

// TestFrameWriteError: a frame goes out in one Write, and that Write's error
// is WriteFrame's.
func TestFrameWriteError(t *testing.T) {
	w := &failWriter{failAt: 1}
	err := WriteFrame(w, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("write error not propagated: %v", err)
	}
	if ok := (&failWriter{failAt: 2}); WriteFrame(ok, []byte("x")) != nil || ok.n != 1 {
		t.Fatalf("a frame took %d writes", ok.n)
	}
}

type failWriter struct{ n, failAt int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n >= w.failAt {
		return 0, errors.New("boom")
	}
	return len(p), nil
}
