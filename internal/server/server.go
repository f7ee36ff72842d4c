// Package server is gignite's network serving layer: a TCP server
// speaking the length-prefixed binary wire protocol of internal/wire
// (DESIGN.md §16). Each connection is one session with its own context,
// prepared-statement namespace and log prefix; queries stream back as
// row batches with natural TCP backpressure, a Cancel frame (or a client
// disconnect) cancels the in-flight query, and Shutdown drains
// gracefully: in-flight queries finish and stream out, then connections
// close.
//
// The server registers its connection metrics (conns_open, conns_total,
// conns_rejected_total, bytes_sent_total, bytes_recv_total,
// frames_total, server_queries_total) in the engine's obs registry, so
// one /metrics endpoint serves the whole process.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gignite"
	"gignite/internal/obs"
	"gignite/internal/wire"
)

// Config tunes the serving layer. The zero value serves on an ephemeral
// loopback port with library defaults.
type Config struct {
	// Addr is the TCP listen address (host:port). Empty means
	// "127.0.0.1:0" — an ephemeral loopback port, the test default.
	Addr string
	// MaxConns bounds concurrently open sessions; excess connections are
	// rejected with a CodeTooManyConns error frame. 0 = unbounded.
	MaxConns int
	// AuthToken, when non-empty, must match the token in the client's
	// Hello frame (the protocol's auth stub). Empty accepts any token.
	AuthToken string
	// IdleTimeout closes sessions that send no frame for this long while
	// no query is in flight (0 = DefaultIdleTimeout; < 0 = no idle bound).
	IdleTimeout time.Duration
	// Logger receives server and session log lines; nil logs nothing.
	Logger *Logger
}

// Serving-layer constants. Only the idle timeout is a Config default; the
// rest are fixed (inbound frames are bounded by wire.DefaultMaxFrame).
const (
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultWriteTimeout bounds each frame write, so a wedged client
	// cannot pin a session forever; slow-but-draining clients are fine
	// because the deadline resets per frame.
	DefaultWriteTimeout = time.Minute
	// DefaultBatchRows is the result-stream batch size in rows.
	DefaultBatchRows        = 256
	DefaultHandshakeTimeout = 10 * time.Second
)

// Server serves one engine over TCP.
type Server struct {
	eng *gignite.Engine
	cfg Config
	log *Logger

	ln     net.Listener
	nextID atomic.Uint64
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[*session]struct{}
	draining bool

	m serverMetrics
}

type serverMetrics struct {
	connsOpen     *obs.Gauge
	connsTotal    *obs.Counter
	connsRejected *obs.Counter
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
	frames        *obs.Counter
	queries       *obs.Counter
}

// New wires a server to an engine. Call Listen then Serve.
func New(eng *gignite.Engine, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	reg := eng.Registry()
	return &Server{
		eng:      eng,
		cfg:      cfg,
		log:      cfg.Logger,
		sessions: make(map[*session]struct{}),
		m: serverMetrics{
			connsOpen:     reg.Gauge("conns_open"),
			connsTotal:    reg.Counter("conns_total"),
			connsRejected: reg.Counter("conns_rejected_total"),
			bytesSent:     reg.Counter("bytes_sent_total"),
			bytesRecv:     reg.Counter("bytes_recv_total"),
			frames:        reg.Counter("frames_total"),
			queries:       reg.Counter("server_queries_total"),
		},
	}
}

// Listen binds the configured address. It is separate from Serve so
// callers can learn the bound port (Addr) before accepting traffic.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until the listener closes (Shutdown). It
// returns nil on a clean shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.accept(conn)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// accept admits or rejects one raw connection.
func (s *Server) accept(conn net.Conn) {
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.reject(conn, wire.CodeClosing, "server is draining")
		return
	case s.cfg.MaxConns > 0 && len(s.sessions) >= s.cfg.MaxConns:
		s.mu.Unlock()
		s.reject(conn, wire.CodeTooManyConns,
			fmt.Sprintf("connection limit reached (%d)", s.cfg.MaxConns))
		return
	}
	sess := newSession(s, conn, s.nextID.Add(1))
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.m.connsTotal.Inc()
	s.m.connsOpen.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.serve()
		s.dropSession(sess)
	}()
}

// reject answers a connection the server will not serve with a single
// error frame, then closes it.
func (s *Server) reject(conn net.Conn, code uint16, msg string) {
	s.m.connsRejected.Inc()
	_ = conn.SetWriteDeadline(time.Now().Add(DefaultHandshakeTimeout))
	_ = wire.WriteFrame(conn, wire.FrameError, wire.EncodeError(code, msg))
	_ = conn.Close()
}

// dropSession forgets a session; only the first call for it counts.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	_, open := s.sessions[sess]
	delete(s.sessions, sess)
	s.mu.Unlock()
	if open {
		s.m.connsOpen.Add(-1)
	}
}

// Shutdown drains the server: the listener closes, idle sessions close
// immediately, and busy sessions finish their in-flight query — result
// stream included — before closing. It returns nil once every session
// has exited. When ctx fires first, remaining sessions are force-closed
// (their queries canceled) and ctx's error is returned. Shutdown does
// not close the engine; callers sequence Engine.Close after it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	open := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, sess := range open {
		sess.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.forceClose()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// codeFor maps an engine error onto a wire error code, so the driver can
// rebuild the typed sentinel on the other side.
func codeFor(err error) uint16 {
	switch {
	case errors.Is(err, gignite.ErrOverloaded):
		return wire.CodeOverloaded
	case errors.Is(err, gignite.ErrMemoryExceeded):
		return wire.CodeMemExceeded
	case errors.Is(err, gignite.ErrQueryTimeout), errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	case errors.Is(err, gignite.ErrEngineClosed):
		return wire.CodeClosing
	default:
		return wire.CodeInternal
	}
}
