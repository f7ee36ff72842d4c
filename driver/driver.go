// Package driver is gignite's database/sql driver: it speaks the wire
// protocol of internal/wire (DESIGN.md §16) over TCP to a gignited
// server, so any Go program can use the engine through the standard
// library's connection pool.
//
//	import (
//		"database/sql"
//		_ "gignite/driver"
//	)
//
//	db, err := sql.Open("gignite", "127.0.0.1:7468")
//	rows, err := db.QueryContext(ctx, "SELECT ...")
//
// The DSN is "host:port", optionally "gignite://host:port?token=SECRET"
// to pass the handshake auth token. `?` placeholders ride the wire
// Parse/Execute path (server-side prepared statements, so repeated
// executions skip planning), and context cancellation sends a Cancel
// frame that aborts the server-side query — the error then surfaces as
// the context's error. Server-side failures come back as the engine's
// typed sentinels: errors.Is(err, gignite.ErrOverloaded),
// gignite.ErrMemoryExceeded, gignite.ErrQueryTimeout and
// gignite.ErrEngineClosed all work across the wire.
//
// Transactions are not supported (the engine has no transactional
// storage); Begin returns an error.
package driver

import (
	"bufio"
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"net"
	"net/url"
	"strings"
	"sync"
	"time"

	"gignite"
	"gignite/internal/wire"
)

func init() {
	sql.Register("gignite", &Driver{})
}

// ErrTxUnsupported is returned by Begin: the engine has no transactions.
var ErrTxUnsupported = errors.New("gignite driver: transactions are not supported")

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

// Open dials the DSN (see the package comment for the format).
func (d *Driver) Open(name string) (driver.Conn, error) {
	c, err := d.OpenConnector(name)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once for the pool.
func (d *Driver) OpenConnector(name string) (driver.Connector, error) {
	addr, token, err := parseDSN(name)
	if err != nil {
		return nil, err
	}
	return &Connector{Addr: addr, Token: token, drv: d}, nil
}

// parseDSN accepts "host:port" or "gignite://host:port?token=SECRET".
func parseDSN(name string) (addr, token string, err error) {
	if !strings.Contains(name, "://") {
		return name, "", nil
	}
	u, err := url.Parse(name)
	if err != nil {
		return "", "", fmt.Errorf("gignite driver: bad DSN %q: %w", name, err)
	}
	if u.Scheme != "gignite" {
		return "", "", fmt.Errorf("gignite driver: bad DSN scheme %q", u.Scheme)
	}
	return u.Host, u.Query().Get("token"), nil
}

// Connector implements driver.Connector; it dials and handshakes one
// connection per Connect.
type Connector struct {
	// Addr is the server's host:port.
	Addr string
	// Token is the handshake auth token ("" when the server requires none).
	Token string

	drv *Driver
}

// Connect dials, handshakes and returns a ready connection.
func (cn *Connector) Connect(ctx context.Context) (driver.Conn, error) {
	var d net.Dialer
	netc, err := d.DialContext(ctx, "tcp", cn.Addr)
	if err != nil {
		return nil, err
	}
	c := &conn{netc: netc, br: bufio.NewReaderSize(netc, 32<<10)}
	if err := c.handshake(ctx, cn.Token); err != nil {
		_ = netc.Close()
		return nil, err
	}
	return c, nil
}

// Driver returns the parent driver.
func (cn *Connector) Driver() driver.Driver {
	if cn.drv != nil {
		return cn.drv
	}
	return &Driver{}
}

// conn is one wire-protocol connection. database/sql guarantees that at
// most one operation runs on a conn at a time; the write mutex exists
// only for the context-cancel watcher, which injects a Cancel frame
// concurrently with a blocked read.
type conn struct {
	netc net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex

	nextStmt uint32
	broken   bool
}

func (c *conn) handshake(ctx context.Context, token string) error {
	if deadline, ok := ctx.Deadline(); ok {
		_ = c.netc.SetDeadline(deadline)
		defer func() { _ = c.netc.SetDeadline(time.Time{}) }()
	}
	var enc wire.Encoder
	enc.U32(wire.Magic)
	enc.U8(wire.Version)
	enc.Str(token)
	if err := c.writeFrame(wire.FrameHello, enc.Bytes()); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrame(c.br, 0)
	if err != nil {
		return err
	}
	switch typ {
	case wire.FrameHelloOK:
		return nil
	case wire.FrameError:
		return errorFromWire(wire.DecodeError(payload), nil)
	default:
		return fmt.Errorf("gignite driver: unexpected handshake reply %#x", typ)
	}
}

func (c *conn) writeFrame(typ uint8, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := wire.WriteFrame(c.netc, typ, payload)
	if err != nil {
		c.broken = true
	}
	return err
}

func (c *conn) readFrame() (uint8, []byte, error) {
	typ, payload, err := wire.ReadFrame(c.br, 0)
	if err != nil {
		c.broken = true
	}
	return typ, payload, err
}

// watchCancel arranges for ctx cancellation to send a Cancel frame while
// a query is in flight. The returned stop func must be called once the
// response stream is fully consumed (or abandoned). It returns only after
// the watcher has exited, so a Cancel the watcher was about to send is on
// the wire before the connection's next request — where the server, idle
// by then, ignores it — and can never hit that next request instead.
func (c *conn) watchCancel(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			_ = c.writeFrame(wire.FrameCancel, nil)
		case <-done:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Prepare implements driver.Conn.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext sends Parse and waits for ParseOK, yielding a
// server-side prepared statement.
func (c *conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.nextStmt++
	id := c.nextStmt
	var enc wire.Encoder
	enc.U32(id)
	enc.Str(query)
	if err := c.writeFrame(wire.FrameParse, enc.Bytes()); err != nil {
		return nil, driver.ErrBadConn
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, driver.ErrBadConn
	}
	switch typ {
	case wire.FrameParseOK:
		d := wire.NewDecoder(payload)
		_ = d.U32() // echoed id
		n := int(d.U16())
		if d.Err() != nil {
			c.broken = true
			return nil, d.Err()
		}
		return &stmt{c: c, id: id, numInput: n}, nil
	case wire.FrameError:
		return nil, errorFromWire(wire.DecodeError(payload), ctx)
	default:
		c.broken = true
		return nil, fmt.Errorf("gignite driver: unexpected Parse reply %#x", typ)
	}
}

// QueryContext implements driver.QueryerContext for the no-argument
// fast path; with arguments it defers to the prepared-statement path.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		// database/sql falls back to PrepareContext + stmt.QueryContext,
		// which is exactly the wire Parse/Execute path.
		return nil, driver.ErrSkip
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var enc wire.Encoder
	enc.Str(query)
	if err := c.writeFrame(wire.FrameQuery, enc.Bytes()); err != nil {
		return nil, driver.ErrBadConn
	}
	return c.awaitRows(ctx)
}

// ExecContext runs a statement and discards any rows (DDL, INSERT).
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	rows, err := c.QueryContext(ctx, query, nil)
	if err != nil {
		return nil, err
	}
	if err := rows.Close(); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// awaitRows reads the RowHeader (or terminal Error) for a query just
// sent and returns the streaming rows. The cancel watcher stays armed
// until the rows are closed or exhausted.
func (c *conn) awaitRows(ctx context.Context) (driver.Rows, error) {
	stop := c.watchCancel(ctx)
	typ, payload, err := c.readFrame()
	if err != nil {
		stop()
		return nil, driver.ErrBadConn
	}
	switch typ {
	case wire.FrameRowHeader:
		d := wire.NewDecoder(payload)
		n := int(d.U16())
		cols := make([]string, 0, n)
		for i := 0; i < n; i++ {
			cols = append(cols, d.Str())
		}
		if d.Err() != nil {
			c.broken = true
			stop()
			return nil, d.Err()
		}
		return &rows{c: c, cols: cols, stop: stop}, nil
	case wire.FrameError:
		stop()
		return nil, errorFromWire(wire.DecodeError(payload), ctx)
	default:
		c.broken = true
		stop()
		return nil, fmt.Errorf("gignite driver: unexpected query reply %#x", typ)
	}
}

// Begin implements driver.Conn; the engine has no transactions.
func (c *conn) Begin() (driver.Tx, error) { return nil, ErrTxUnsupported }

// BeginTx implements driver.ConnBeginTx; same answer with a context.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	return nil, ErrTxUnsupported
}

// IsValid implements driver.Validator so the pool discards broken
// connections instead of handing them out again.
func (c *conn) IsValid() bool { return !c.broken }

// Close implements driver.Conn: best-effort Quit, then close the socket.
func (c *conn) Close() error {
	_ = c.writeFrame(wire.FrameQuit, nil)
	return c.netc.Close()
}

// errorFromWire rebuilds a client-side error from an error frame. Codes
// carrying engine sentinels come back as wrapped sentinels so errors.Is
// works across the wire; cancellation prefers the local context's error
// when the caller's ctx is done (database/sql reports ctx.Err() then).
func errorFromWire(se *wire.ServerError, ctx context.Context) error {
	if ctx != nil && ctx.Err() != nil &&
		(se.Code == wire.CodeCanceled || se.Code == wire.CodeTimeout) {
		return ctx.Err()
	}
	switch se.Code {
	case wire.CodeOverloaded:
		return fmt.Errorf("%w: %s", gignite.ErrOverloaded, se.Message)
	case wire.CodeMemExceeded:
		return fmt.Errorf("%w: %s", gignite.ErrMemoryExceeded, se.Message)
	case wire.CodeTimeout:
		return fmt.Errorf("%w: %s", gignite.ErrQueryTimeout, se.Message)
	case wire.CodeCanceled:
		return fmt.Errorf("%w: %s", context.Canceled, se.Message)
	case wire.CodeClosing:
		return fmt.Errorf("%w: %s", gignite.ErrEngineClosed, se.Message)
	default:
		return se
	}
}
