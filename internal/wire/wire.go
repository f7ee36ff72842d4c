// Package wire defines gignite's client/server wire protocol v2: a
// length-prefixed binary framing with typed messages, shared by the
// server (internal/server) and the database/sql driver (package driver).
//
// Framing (DESIGN.md §16):
//
//	uint32 big-endian  frame length = 1 (type byte) + len(payload)
//	uint8              frame type
//	[]byte             payload
//
// The payload is a flat big-endian encoding: fixed-width integers,
// uint32-length-prefixed strings, and tagged scalar values mirroring
// types.Value (one kind byte followed by the payload). Result rows travel
// as column batches (batch.go). The codec carries no per-field tags or
// versioning — the handshake pins the protocol version, and any layout
// change bumps Version.
//
// The package depends only on types and the standard library so the
// driver can be linked without pulling in the engine.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"gignite/internal/types"
)

// Magic opens every Hello frame ("GIG1").
const Magic uint32 = 0x47494731

// Version is the protocol version this codec speaks. Version 2 carries
// results as column batches; a peer speaking another version is refused
// at the handshake.
const Version uint8 = 2

// DefaultMaxFrame bounds one frame's size (16 MiB) unless the reader
// overrides it; a peer announcing a larger frame is a protocol error,
// not an allocation.
const DefaultMaxFrame = 16 << 20

// Frame types. Client-to-server types have the high bit clear,
// server-to-client types have it set.
const (
	// FrameHello opens a connection: magic u32, version u8, auth token
	// string. The server answers HelloOK or Error.
	FrameHello uint8 = 0x01
	// FrameQuery runs one SQL statement: sql string.
	FrameQuery uint8 = 0x02
	// FrameParse prepares a statement server-side: stmt id u32, sql
	// string. The server answers ParseOK or Error.
	FrameParse uint8 = 0x03
	// FrameExecute runs a prepared statement: stmt id u32, arg count u16,
	// args as tagged values.
	FrameExecute uint8 = 0x04
	// FrameCloseStmt discards a prepared statement: stmt id u32.
	FrameCloseStmt uint8 = 0x05
	// FrameCancel cancels the in-flight query on this connection (empty
	// payload). The canceled query terminates with Error/CodeCanceled.
	FrameCancel uint8 = 0x06
	// FrameQuit closes the session cleanly (empty payload).
	FrameQuit uint8 = 0x07

	// FrameHelloOK acknowledges the handshake: version u8, session id u64.
	FrameHelloOK uint8 = 0x81
	// FrameRowHeader starts a result stream: column count u16, names.
	FrameRowHeader uint8 = 0x82
	// FrameRowBatch carries rows as a column batch: row count u16, column
	// count u16, one encoded column per result column (batch.go).
	FrameRowBatch uint8 = 0x83
	// FrameDone ends a successful result stream: row count u64, modeled
	// nanos i64, flags u8 (FlagPlanningSkipped).
	FrameDone uint8 = 0x84
	// FrameError reports a failure: code u16, message string. It
	// terminates any result stream in progress.
	FrameError uint8 = 0x85
	// FrameParseOK acknowledges Parse: stmt id u32, param count u16.
	FrameParseOK uint8 = 0x86
)

// FlagPlanningSkipped marks a Done frame whose query reused a cached or
// prepared plan (ExecStats.PlanningSkipped).
const FlagPlanningSkipped uint8 = 1 << 0

// Error codes carried by FrameError. The driver maps them back onto the
// engine's typed sentinels so errors.Is works across the wire.
const (
	// CodeInternal is any failure without a more specific code (planning
	// errors, binder errors, execution faults).
	CodeInternal uint16 = 1
	// CodeOverloaded maps gignite.ErrOverloaded (admission shed, pool
	// exhausted).
	CodeOverloaded uint16 = 2
	// CodeMemExceeded maps gignite.ErrMemoryExceeded.
	CodeMemExceeded uint16 = 3
	// CodeTimeout maps gignite.ErrQueryTimeout / context deadline.
	CodeTimeout uint16 = 4
	// CodeCanceled reports a query terminated by FrameCancel or client
	// disconnect.
	CodeCanceled uint16 = 5
	// CodeClosing reports the server draining or the engine closed.
	CodeClosing uint16 = 6
	// CodeAuth reports a rejected handshake token.
	CodeAuth uint16 = 7
	// CodeProtocol reports a malformed or unexpected frame.
	CodeProtocol uint16 = 8
	// CodeTooManyConns reports the MaxConns limit.
	CodeTooManyConns uint16 = 9
	// CodeUnknownStmt reports Execute/CloseStmt naming an unknown id.
	CodeUnknownStmt uint16 = 10
)

// ErrFrameTooLarge reports a frame announcing a length past the
// reader's bound.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// WriteFrame writes one frame. It buffers header+payload into a single
// Write so frames are never interleaved by a racing writer that forgot
// its lock (the caller still must serialize writers).
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = typ
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, bounding the announced length by limit
// (DefaultMaxFrame when limit <= 0).
func ReadFrame(r io.Reader, limit int) (typ uint8, payload []byte, err error) {
	frame, err := ReadFrameInto(r, limit, nil)
	if err != nil {
		return 0, nil, err
	}
	return frame[0], frame[1:], nil
}

// ReadFrameInto reads one frame like ReadFrame, into buf when the frame
// fits its capacity: a reader that passes the returned frame back as its
// next buf allocates only when a frame outgrows every earlier one.
// frame[0] is the type byte and frame[1:] the payload; both alias buf
// until it is read into again. A frame larger than buf grows as its bytes
// arrive, by what has arrived and at least frameStep, so a peer that
// announces a large frame and stalls costs the reader one frameStep.
func ReadFrameInto(r io.Reader, limit int, buf []byte) (frame []byte, err error) {
	if limit <= 0 {
		limit = DefaultMaxFrame
	}
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n < 1 {
		return nil, fmt.Errorf("wire: zero-length frame")
	}
	if int(n) > limit {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, limit)
	}
	frame = buf[:0]
	for len(frame) < int(n) {
		if len(frame) == cap(frame) {
			step := max(len(frame), frameStep)
			frame = slices.Grow(frame, min(step, int(n)-len(frame)))
		}
		end := min(cap(frame), int(n))
		if _, err := io.ReadFull(r, frame[len(frame):end]); err != nil {
			if err == io.EOF && len(frame) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		frame = frame[:end]
	}
	return frame, nil
}

// frameStep is the most ReadFrameInto allocates beyond the bytes of a
// frame that have arrived.
const frameStep = 64 << 10

// IdleFrameBytes bounds the frame buffer a peer keeps between statements:
// one that grew past it, for a row too wide to share a batch, is dropped
// once its stream ends, so an idle connection retains a constant amount.
const IdleFrameBytes = 1 << 20

// Encoder builds a frame payload. The zero value is ready to use; Bytes
// returns the accumulated payload.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse, keeping the backing array.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// BeginFrame empties the encoder and reserves a frame header, so that the
// payload appended next is framed in place by EndFrame.
func (e *Encoder) BeginFrame() { e.buf = append(e.buf[:0], 0, 0, 0, 0, 0) }

// EndFrame fills in the header BeginFrame reserved, for a frame of type
// typ, and returns the whole frame, ready for a single Write.
func (e *Encoder) EndFrame(typ uint8) []byte {
	binary.BigEndian.PutUint32(e.buf, uint32(len(e.buf)-4))
	e.buf[4] = typ
	return e.buf
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// I64 appends a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a uint32-length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Value appends one tagged scalar.
func (e *Encoder) Value(v types.Value) {
	e.U8(uint8(v.K))
	switch v.K {
	case types.KindNull:
	case types.KindInt, types.KindDate:
		e.I64(v.I)
	case types.KindBool:
		if v.I != 0 {
			e.U8(1)
		} else {
			e.U8(0)
		}
	case types.KindFloat:
		e.F64(v.F)
	case types.KindString:
		e.Str(v.S)
	default:
		// Unknown kinds encode as NULL rather than corrupting the stream;
		// the engine never produces them.
		e.buf[len(e.buf)-1] = uint8(types.KindNull)
	}
}

// Row appends a value-count-prefixed row: protocol v1's row encoding,
// kept for the benchmark's traced wire spans. Results travel as column
// batches (BatchEncoder).
func (e *Encoder) Row(r types.Row) {
	e.U16(uint16(len(r)))
	for _, v := range r {
		e.Value(v)
	}
}

// Decoder consumes a frame payload. Errors are sticky: after the first
// short read every accessor returns zero values and Err reports the
// failure, so message parsers read field-by-field and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many unread bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("wire: payload truncated (want %d bytes, have %d)", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Count reads a u16 element count and checks it against the unread
// payload, given that every element takes at least minSize bytes, so a
// count the peer made up is refused before anything is sized by it.
func (d *Decoder) Count(minSize int) int {
	n := int(d.U16())
	if d.err == nil && n*minSize > d.Remaining() {
		d.err = fmt.Errorf("wire: count %d exceeds what the remaining %d bytes can hold", n, d.Remaining())
		return 0
	}
	return n
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a uint32-length-prefixed string.
func (d *Decoder) Str() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	if int(n) > d.Remaining() {
		d.err = fmt.Errorf("wire: string length %d exceeds remaining payload %d", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// Value reads one tagged scalar.
func (d *Decoder) Value() types.Value {
	k := types.Kind(d.U8())
	if d.err != nil {
		return types.Null
	}
	switch k {
	case types.KindNull:
		return types.Null
	case types.KindInt:
		return types.NewInt(d.I64())
	case types.KindDate:
		return types.NewDate(d.I64())
	case types.KindBool:
		return types.NewBool(d.U8() != 0)
	case types.KindFloat:
		return types.NewFloat(d.F64())
	case types.KindString:
		return types.NewString(d.Str())
	default:
		d.err = fmt.Errorf("wire: unknown value kind %d", uint8(k))
		return types.Null
	}
}

// Row reads a value-count-prefixed row (Encoder.Row's v1 encoding).
func (d *Decoder) Row() types.Row {
	n := d.Count(1) // a value is at least its kind byte
	if d.err != nil {
		return nil
	}
	r := make(types.Row, 0, n)
	for i := 0; i < n; i++ {
		r = append(r, d.Value())
		if d.err != nil {
			return nil
		}
	}
	return r
}

// ServerError is the decoded form of a FrameError. Both peers use it:
// the server to describe a failure before encoding, the driver as the
// error it returns when no engine sentinel matches the code.
type ServerError struct {
	Code    uint16
	Message string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("gignite server error (code %d): %s", e.Code, e.Message)
}

// ErrorFrame appends a FrameError payload.
func (e *Encoder) ErrorFrame(code uint16, msg string) {
	e.U16(code)
	e.Str(msg)
}

// EncodeError builds a FrameError payload.
func EncodeError(code uint16, msg string) []byte {
	var enc Encoder
	enc.ErrorFrame(code, msg)
	return enc.Bytes()
}

// DecodeError parses a FrameError payload.
func DecodeError(payload []byte) *ServerError {
	d := NewDecoder(payload)
	code := d.U16()
	msg := d.Str()
	if d.Err() != nil {
		return &ServerError{Code: CodeProtocol, Message: "malformed error frame"}
	}
	return &ServerError{Code: code, Message: msg}
}
