package driver

import (
	"context"
	"database/sql/driver"
	"fmt"
	"io"
	"time"

	"gignite/internal/types"
	"gignite/internal/wire"
)

// stmt is a server-side prepared statement (wire Parse/Execute).
type stmt struct {
	c        *conn
	id       uint32
	numInput int
	closed   bool
}

// Close discards the server-side statement. CloseStmt has no reply
// frame; request/response pairing stays intact because frames are
// processed in order.
func (s *stmt) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var enc wire.Encoder
	enc.U32(s.id)
	return s.c.writeFrame(wire.FrameCloseStmt, enc.Bytes())
}

// NumInput reports the number of `?` placeholders (from ParseOK).
func (s *stmt) NumInput() int { return s.numInput }

// Query implements driver.Stmt.
func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	named := make([]driver.NamedValue, len(args))
	for i, a := range args {
		named[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return s.QueryContext(context.Background(), named)
}

// QueryContext sends Execute and streams the result.
func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var enc wire.Encoder
	enc.U32(s.id)
	enc.U16(uint16(len(args)))
	for _, a := range args {
		v, err := wireValue(a.Value)
		if err != nil {
			return nil, err
		}
		enc.Value(v)
	}
	if err := s.c.writeFrame(wire.FrameExecute, enc.Bytes()); err != nil {
		return nil, driver.ErrBadConn
	}
	return s.c.awaitRows(ctx)
}

// Exec implements driver.Stmt (prepared statements are SELECT-only on
// the engine, but database/sql requires the method).
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	rows, err := s.Query(args)
	if err != nil {
		return nil, err
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// ExecContext implements driver.StmtExecContext.
func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	rows, err := s.QueryContext(ctx, args)
	if err != nil {
		return nil, err
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// rows streams one result set: batches are pulled from the connection
// on demand, so a slow consumer exerts TCP backpressure on the server
// instead of buffering the whole result client-side.
type rows struct {
	c    *conn
	cols []string
	stop func() // disarms the context-cancel watcher

	n, next int // rows in the current batch (c.batch's vectors), next to return
	done    bool
	err     error
}

// Columns implements driver.Rows.
func (r *rows) Columns() []string { return r.cols }

// Next copies the next row's values out of the batch's column vectors,
// reading further batches as needed.
func (r *rows) Next(dest []driver.Value) error {
	for r.next >= r.n {
		if r.done {
			return io.EOF
		}
		if err := r.readBatch(); err != nil {
			return err
		}
	}
	for i, col := range r.c.batch.Columns() {
		dest[i] = col[r.next]
	}
	r.next++
	return nil
}

// readBatch pulls one RowBatch/Done/Error frame off the connection.
func (r *rows) readBatch() error {
	typ, payload, err := r.c.readFrame()
	if err != nil {
		r.finish()
		r.err = err
		return err
	}
	switch typ {
	case wire.FrameRowBatch:
		// The decoder checks the batch's column count against the header:
		// it is the peer's claim, not ours, and a wider batch would overrun
		// Next's dest and a narrower one leave the previous row's values in it.
		n, err := r.c.batch.Decode(payload)
		if err != nil {
			return r.fail(fmt.Errorf("gignite driver: protocol error: %w", err))
		}
		r.n, r.next = n, 0
		return nil
	case wire.FrameDone:
		r.done = true
		r.finish()
		return nil
	case wire.FrameError:
		r.done = true
		r.finish()
		r.err = errorFromWire(wire.DecodeError(payload), nil)
		return r.err
	default:
		return r.fail(fmt.Errorf("gignite driver: unexpected stream frame %#x", typ))
	}
}

// fail ends the stream on a protocol violation: the connection is marked
// broken (the pool discards it), the cancel watcher stops, and err is the
// stream's error.
func (r *rows) fail(err error) error {
	r.c.broken = true
	r.finish()
	r.err = err
	return err
}

// finish ends the stream client-side: the cancel watcher stops, and the
// conn drops the stream's values, the box tables past the first
// wire.IdleFrameBytes of them and a frame buffer grown past
// wire.IdleFrameBytes, so an idle conn retains a constant amount.
func (r *rows) finish() {
	if r.stop != nil {
		r.stop()
		r.stop = nil
	}
	r.n, r.next = 0, 0
	r.c.batch.Reset(0)
	r.c.batch.Trim(wire.IdleFrameBytes)
	if cap(r.c.rbuf) > wire.IdleFrameBytes {
		r.c.rbuf = nil
	}
}

// Close drains the remainder of the stream so the connection is ready
// for the next request. A Cancel frame is sent first so a query still
// executing server-side is aborted rather than waited out.
func (r *rows) Close() error {
	if r.done || r.c.broken {
		r.finish()
		return nil
	}
	_ = r.c.writeFrame(wire.FrameCancel, nil)
	for !r.done {
		if err := r.readBatch(); err != nil {
			// The terminal Error frame (e.g. canceled) still ends the
			// stream cleanly; io errors broke the conn already.
			break
		}
	}
	r.finish()
	return nil
}

// wireValue converts a database/sql driver.Value into the engine's
// value model for the Execute frame.
func wireValue(v driver.Value) (types.Value, error) {
	switch x := v.(type) {
	case nil:
		return types.Null, nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case bool:
		return types.NewBool(x), nil
	case string:
		return types.NewString(x), nil
	case []byte:
		return types.NewString(string(x)), nil
	case time.Time:
		// Floor division: instants before 1970 belong to the day that
		// contains them, not the one after.
		sec := x.Unix()
		days := sec / 86400
		if sec%86400 < 0 {
			days--
		}
		return types.NewDate(days), nil
	default:
		return types.Null, fmt.Errorf("gignite driver: unsupported parameter type %T", v)
	}
}

// sqlValue converts an engine value into a database/sql driver.Value.
// Dates surface as time.Time (UTC midnight), matching how DATE columns
// scan into time.Time.
func sqlValue(v types.Value) driver.Value {
	switch v.K {
	case types.KindNull:
		return nil
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return v.F
	case types.KindString:
		return v.S
	case types.KindBool:
		return v.I != 0
	case types.KindDate:
		return v.Time()
	default:
		return nil
	}
}
