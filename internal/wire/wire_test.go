package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"gignite/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4}
	if err := WriteFrame(&buf, FrameQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameQuery || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%#x payload=%v", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameCancel, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameCancel || len(payload) != 0 {
		t.Fatalf("empty frame: type=%#x payload=%v", typ, payload)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(&buf, 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

// TestStalledFrameAllocatesLittle: a peer that announces a 16 MiB frame
// and sends nothing more used to make the reader allocate all of it, on
// the server before the handshake was read. A frame grows as its bytes
// arrive.
func TestStalledFrameAllocatesLittle(t *testing.T) {
	header := []byte{0x00, 0xff, 0xff, 0xff, 0x83}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameInto(bytes.NewReader(header), 0, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 {
		t.Fatalf("reading a stalled frame header allocated %d bytes, want <= %d", got, 128<<10)
	}
}

// TestLargeFrameGrowsAsItArrives: a frame several steps larger than buf
// reads whole however its bytes are split, and one that is cut off at a
// step boundary is truncated, not a clean end of stream. A frame that
// fits buf allocates nothing.
func TestLargeFrameGrowsAsItArrives(t *testing.T) {
	payload := make([]byte, 5*frameStep+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, payload); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	frame, err := ReadFrameInto(iotest.HalfReader(bytes.NewReader(whole)), 0, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != FrameQuery || !bytes.Equal(frame[1:], payload) {
		t.Fatal("large frame read back differently")
	}
	if _, err := ReadFrameInto(bytes.NewReader(whole[:4+frameStep]), 0, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut at a step: want ErrUnexpectedEOF, got %v", err)
	}
	r := bytes.NewReader(whole)
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset(whole)
		if _, err := ReadFrameInto(r, 0, frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a frame that fits buf allocated %v objects", allocs)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null,
		types.NewInt(-42),
		types.NewInt(1 << 60),
		types.NewFloat(3.14159),
		types.NewFloat(-0.0),
		types.NewString(""),
		types.NewString("hello, world"),
		types.NewBool(true),
		types.NewBool(false),
		types.DateFromYMD(1998, 12, 1),
	}
	var enc Encoder
	for _, v := range vals {
		enc.Value(v)
	}
	dec := NewDecoder(enc.Bytes())
	for i, want := range vals {
		got := dec.Value()
		if dec.Err() != nil {
			t.Fatalf("value %d: %v", i, dec.Err())
		}
		if got != want {
			t.Fatalf("value %d: got %#v want %#v", i, got, want)
		}
	}
	if dec.Remaining() != 0 {
		t.Fatalf("%d bytes left over", dec.Remaining())
	}
}

func TestRowRoundTrip(t *testing.T) {
	row := types.Row{types.NewInt(7), types.NewString("x"), types.Null}
	var enc Encoder
	enc.Row(row)
	dec := NewDecoder(enc.Bytes())
	got := dec.Row()
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if len(got) != len(row) {
		t.Fatalf("row length %d want %d", len(got), len(row))
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatalf("col %d: got %#v want %#v", i, got[i], row[i])
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	dec := NewDecoder([]byte{0x01})
	_ = dec.U32() // truncated
	if dec.Err() == nil {
		t.Fatal("truncated read did not set the error")
	}
	// Subsequent reads stay safe and zero-valued.
	if v := dec.U64(); v != 0 {
		t.Fatalf("read after error returned %d", v)
	}
	if s := dec.Str(); s != "" {
		t.Fatalf("read after error returned %q", s)
	}
}

func TestDecoderBogusStringLength(t *testing.T) {
	var enc Encoder
	enc.U32(1 << 30) // announced length far past the payload
	dec := NewDecoder(enc.Bytes())
	if s := dec.Str(); s != "" || dec.Err() == nil {
		t.Fatalf("bogus string length: %q err=%v", s, dec.Err())
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	payload := EncodeError(CodeOverloaded, "engine overloaded")
	se := DecodeError(payload)
	if se.Code != CodeOverloaded || se.Message != "engine overloaded" {
		t.Fatalf("decoded %+v", se)
	}
	if se.Error() == "" {
		t.Fatal("empty error text")
	}
	// Malformed payloads decode to a protocol error, never panic.
	if se := DecodeError([]byte{0xFF}); se.Code != CodeProtocol {
		t.Fatalf("malformed error frame decoded to %+v", se)
	}
}
