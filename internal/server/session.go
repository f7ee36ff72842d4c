package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gignite"
	"gignite/internal/wire"
)

// session is one client connection: its own read loop, write lock,
// prepared-statement namespace, in-flight query cancel handle and log
// prefix. At most one query is in flight per session (the protocol does
// not pipeline); Cancel and disconnect are handled by the read loop
// while the query goroutine executes and streams.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	br   *bufio.Reader
	log  gignite.LogFunc

	// wmu serializes frame writes. A request's terminal frame and the
	// return to idle happen together under it (finish), so the terminal
	// frame is the request's last observable effect.
	wmu sync.Mutex

	mu sync.Mutex
	// inflight cancels the in-flight query; nil means the session is idle.
	inflight context.CancelFunc
	draining bool
	closed   bool

	// running counts live query goroutines, so cleanup can await them.
	running sync.WaitGroup
	stmts   map[uint32]*gignite.Stmt
	queries uint64
}

func newSession(s *Server, conn net.Conn, id uint64) *session {
	sess := &session{
		srv:   s,
		id:    id,
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 32<<10),
		stmts: make(map[uint32]*gignite.Stmt),
	}
	if s.log != nil {
		sess.log = s.log.Func(fmt.Sprintf("conn %d", id))
	} else {
		sess.log = func(string, ...interface{}) {}
	}
	return sess
}

// serve runs the session to completion: handshake, then one frame at a
// time until the client quits, errs out, idles out, or the server
// drains. It always leaves the connection closed and the in-flight
// query (if any) canceled and finished.
func (sess *session) serve() {
	defer sess.cleanup()
	if err := sess.handshake(); err != nil {
		sess.log("handshake failed: %v", err)
		return
	}
	sess.log("session opened from %s", sess.conn.RemoteAddr())
	for {
		typ, payload, err := sess.readFrame()
		if err != nil {
			if !sess.isClosed() && !errors.Is(err, net.ErrClosed) {
				sess.log("read: %v", err)
			}
			return
		}
		switch typ {
		case wire.FrameCancel:
			sess.cancelInflight()
		case wire.FrameQuit:
			return
		case wire.FrameQuery:
			d := wire.NewDecoder(payload)
			sql := d.Str()
			if d.Err() != nil {
				sess.protocolError("malformed Query frame: %v", d.Err())
				return
			}
			if !sess.startQuery(func(ctx context.Context) (*gignite.Result, error) {
				return sess.srv.eng.ExecContext(ctx, sql)
			}) {
				return
			}
		case wire.FrameParse:
			if !sess.handleParse(payload) {
				return
			}
		case wire.FrameExecute:
			if !sess.handleExecute(payload) {
				return
			}
		case wire.FrameCloseStmt:
			if !sess.handleCloseStmt(payload) {
				return
			}
		default:
			sess.protocolError("unexpected frame type %#x", typ)
			return
		}
	}
}

// handshake validates the client Hello under a fixed deadline.
func (sess *session) handshake() error {
	_ = sess.conn.SetReadDeadline(time.Now().Add(DefaultHandshakeTimeout))
	typ, payload, err := wire.ReadFrame(sess.br, wire.DefaultMaxFrame)
	if err != nil {
		return err
	}
	sess.srv.m.frames.Inc()
	if typ != wire.FrameHello {
		sess.refuse(wire.CodeProtocol, "expected Hello frame")
		return fmt.Errorf("first frame was %#x, not Hello", typ)
	}
	d := wire.NewDecoder(payload)
	magic := d.U32()
	version := d.U8()
	token := d.Str()
	if d.Err() != nil || magic != wire.Magic {
		sess.refuse(wire.CodeProtocol, "malformed Hello frame")
		return fmt.Errorf("malformed Hello")
	}
	if version != wire.Version {
		sess.refuse(wire.CodeProtocol, fmt.Sprintf("unsupported protocol version %d (server speaks %d)", version, wire.Version))
		return fmt.Errorf("client version %d", version)
	}
	if want := sess.srv.cfg.AuthToken; want != "" && token != want {
		sess.refuse(wire.CodeAuth, "invalid auth token")
		return fmt.Errorf("auth token mismatch")
	}
	var enc wire.Encoder
	enc.U8(wire.Version)
	enc.U64(sess.id)
	return sess.writeFrame(wire.FrameHelloOK, enc.Bytes())
}

// refuse rejects the handshake. The session stops counting against
// MaxConns before the error frame goes out, so a client that reconnects
// the moment it reads the refusal is not turned away by its own corpse.
func (sess *session) refuse(code uint16, msg string) {
	sess.srv.dropSession(sess)
	_ = sess.sendError(code, msg)
}

// readFrame reads the next client frame. While the session is idle the
// read carries the idle deadline; while a query is in flight the read
// blocks without a deadline (disconnects still surface as read errors),
// so a long query is never mistaken for an idle client. A timeout that
// fires just as a query starts is retried rather than fatal.
func (sess *session) readFrame() (uint8, []byte, error) {
	for {
		if d := sess.srv.cfg.IdleTimeout; d > 0 && !sess.isBusy() {
			_ = sess.conn.SetReadDeadline(time.Now().Add(d))
		} else {
			_ = sess.conn.SetReadDeadline(time.Time{})
		}
		typ, payload, err := sess.readOneFrame()
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() && sess.isBusy() {
			continue
		}
		if err == nil {
			sess.srv.m.frames.Inc()
		}
		return typ, payload, err
	}
}

func (sess *session) readOneFrame() (uint8, []byte, error) {
	typ, payload, err := wire.ReadFrame(sess.br, wire.DefaultMaxFrame)
	if err == nil {
		sess.srv.m.bytesRecv.Add(float64(5 + len(payload)))
	}
	return typ, payload, err
}

func (sess *session) isBusy() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.inflight != nil
}

func (sess *session) isClosed() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.closed
}

// handleParse prepares a statement server-side and acknowledges with
// ParseOK. Parse is rejected while a query streams (it would interleave
// frames into the result stream).
func (sess *session) handleParse(payload []byte) bool {
	d := wire.NewDecoder(payload)
	id := d.U32()
	sqlText := d.Str()
	if d.Err() != nil {
		sess.protocolError("malformed Parse frame: %v", d.Err())
		return false
	}
	if sess.isBusy() {
		sess.protocolError("Parse while a query is in flight")
		return false
	}
	stmt, err := sess.srv.eng.Prepare(sqlText)
	if err != nil {
		return sess.sendError(codeFor(err), err.Error()) == nil
	}
	sess.mu.Lock()
	sess.stmts[id] = stmt
	sess.mu.Unlock()
	var enc wire.Encoder
	enc.U32(id)
	enc.U16(uint16(stmt.NumParams()))
	return sess.writeFrame(wire.FrameParseOK, enc.Bytes()) == nil
}

// handleExecute runs a prepared statement with bound arguments.
func (sess *session) handleExecute(payload []byte) bool {
	d := wire.NewDecoder(payload)
	id := d.U32()
	nargs := int(d.U16())
	args := make([]gignite.Value, 0, nargs)
	for i := 0; i < nargs; i++ {
		args = append(args, d.Value())
	}
	if d.Err() != nil {
		sess.protocolError("malformed Execute frame: %v", d.Err())
		return false
	}
	sess.mu.Lock()
	stmt := sess.stmts[id]
	sess.mu.Unlock()
	if stmt == nil {
		return sess.sendError(wire.CodeUnknownStmt, fmt.Sprintf("unknown statement id %d", id)) == nil
	}
	return sess.startQuery(func(ctx context.Context) (*gignite.Result, error) {
		return stmt.QueryContext(ctx, args...)
	})
}

func (sess *session) handleCloseStmt(payload []byte) bool {
	d := wire.NewDecoder(payload)
	id := d.U32()
	if d.Err() != nil {
		sess.protocolError("malformed CloseStmt frame: %v", d.Err())
		return false
	}
	sess.mu.Lock()
	delete(sess.stmts, id)
	sess.mu.Unlock()
	return true
}

// startQuery launches the query goroutine for one request. It reports
// false when the session must close (protocol violation). The read loop
// keeps running while the query executes, so Cancel frames and
// disconnects interrupt it.
func (sess *session) startQuery(run func(context.Context) (*gignite.Result, error)) bool {
	sess.mu.Lock()
	if sess.inflight != nil {
		sess.mu.Unlock()
		sess.protocolError("query pipelining is not supported")
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	sess.inflight = cancel
	sess.mu.Unlock()

	sess.srv.m.queries.Inc()
	sess.running.Add(1)
	go func() {
		defer sess.running.Done()
		defer cancel()
		res, err := run(ctx)
		if err != nil {
			err = sess.finish(wire.FrameError, wire.EncodeError(codeFor(err), err.Error()))
		} else if err = sess.streamRows(res); err != nil {
			sess.endQuery() // no terminal frame will follow
		} else {
			err = sess.finish(wire.FrameDone, doneFrame(res))
		}
		if err != nil {
			// The client went away mid-stream; the read loop will see the
			// same condition and close the session.
			sess.log("stream aborted: %v", err)
			sess.closeConn()
		}
	}()
	return true
}

// endQuery returns the session to idle and reports whether a drain is
// waiting to close it.
func (sess *session) endQuery() (drainNow bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.inflight = nil
	sess.queries++
	return sess.draining
}

// finish writes a request's terminal frame (Done or Error) and returns
// the session to idle as one step under the write lock: a client that
// sends its next request the instant it reads the terminal frame finds
// the session idle, and whatever that request writes lands after the
// frame. Under drain the connection closes once the frame is out.
func (sess *session) finish(typ uint8, payload []byte) error {
	sess.wmu.Lock()
	drainNow := sess.endQuery()
	err := sess.writeFrameLocked(typ, payload)
	sess.wmu.Unlock()
	if drainNow {
		sess.closeConn()
	}
	return err
}

// streamRows writes one result's RowHeader and row batches; the Done
// frame that ends the stream goes out through finish.
func (sess *session) streamRows(res *gignite.Result) error {
	var enc wire.Encoder
	enc.U16(uint16(len(res.Columns)))
	for _, c := range res.Columns {
		enc.Str(c)
	}
	if err := sess.writeFrame(wire.FrameRowHeader, enc.Bytes()); err != nil {
		return err
	}
	for lo := 0; lo < len(res.Rows); lo += DefaultBatchRows {
		hi := min(lo+DefaultBatchRows, len(res.Rows))
		enc.Reset()
		enc.U16(uint16(hi - lo))
		for _, r := range res.Rows[lo:hi] {
			enc.Row(r)
		}
		if err := sess.writeFrame(wire.FrameRowBatch, enc.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// doneFrame encodes a result's Done payload.
func doneFrame(res *gignite.Result) []byte {
	var enc wire.Encoder
	enc.U64(uint64(len(res.Rows)))
	enc.I64(int64(res.Modeled))
	var flags uint8
	if res.Stats.PlanningSkipped {
		flags |= wire.FlagPlanningSkipped
	}
	enc.U8(flags)
	return enc.Bytes()
}

// cancelInflight cancels the in-flight query, if any.
func (sess *session) cancelInflight() {
	sess.mu.Lock()
	cancel := sess.inflight
	sess.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// drain puts the session into drain mode: an idle session closes
// immediately; a busy one closes right after its in-flight query's
// terminal frame (finish). The write lock orders the two: a terminal
// frame being written is never cut off by the close.
func (sess *session) drain() {
	sess.wmu.Lock()
	sess.mu.Lock()
	sess.draining = true
	busy := sess.inflight != nil
	sess.mu.Unlock()
	sess.wmu.Unlock()
	if !busy {
		sess.closeConn()
	}
}

// forceClose abandons graceful drain: the in-flight query is canceled
// and the connection closed.
func (sess *session) forceClose() {
	sess.cancelInflight()
	sess.closeConn()
}

func (sess *session) closeConn() {
	sess.mu.Lock()
	already := sess.closed
	sess.closed = true
	sess.mu.Unlock()
	if !already {
		_ = sess.conn.Close()
	}
}

// cleanup runs when the read loop exits: the in-flight query is
// canceled and awaited so its goroutine never outlives the session,
// then the connection closes.
func (sess *session) cleanup() {
	sess.cancelInflight()
	sess.running.Wait()
	sess.closeConn()
	sess.mu.Lock()
	n := sess.queries
	sess.mu.Unlock()
	sess.log("session closed after %d queries", n)
}

// writeFrame serializes one frame onto the connection under the write
// lock and the per-frame write deadline, and accounts the sent bytes.
func (sess *session) writeFrame(typ uint8, payload []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	return sess.writeFrameLocked(typ, payload)
}

func (sess *session) writeFrameLocked(typ uint8, payload []byte) error {
	_ = sess.conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	err := wire.WriteFrame(sess.conn, typ, payload)
	if err == nil {
		sess.srv.m.bytesSent.Add(float64(5 + len(payload)))
		sess.srv.m.frames.Inc()
	}
	return err
}

// sendError emits an error frame (stream-terminating from the client's
// point of view).
func (sess *session) sendError(code uint16, msg string) error {
	return sess.writeFrame(wire.FrameError, wire.EncodeError(code, msg))
}

// protocolError logs and reports a protocol violation; the caller then
// closes the session.
func (sess *session) protocolError(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	sess.log("protocol error: %s", msg)
	_ = sess.sendError(wire.CodeProtocol, msg)
}
