package server_test

import (
	"bytes"
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gignite"
	gdriver "gignite/driver"
	"gignite/internal/server"
	"gignite/internal/tpch"
	"gignite/internal/wire"
)

// startServer listens on an ephemeral loopback port and serves eng until
// the test ends.
func startServer(t *testing.T, eng *gignite.Engine, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(eng, cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, srv.Addr().String()
}

// tpchEngine loads TPC-H at a small scale factor once per config.
func tpchEngine(t *testing.T, opt gignite.Option) *gignite.Engine {
	t.Helper()
	eng := gignite.Open(gignite.WithPreset(gignite.ICPlus, 4), opt)
	if err := tpch.Setup(eng, 0.005); err != nil {
		t.Fatal(err)
	}
	return eng
}

// renderSQL renders *sql.Rows exactly like types.Row.String renders
// engine rows, so the two sides can be compared byte for byte.
func renderSQL(t *testing.T, rows *sql.Rows) string {
	t.Helper()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	vals := make([]interface{}, len(cols))
	for i := range vals {
		vals[i] = new(interface{})
	}
	for rows.Next() {
		if err := rows.Scan(vals...); err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = renderValue(*(v.(*interface{})))
		}
		sb.WriteString("[" + strings.Join(parts, ", ") + "]\n")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func renderValue(v interface{}) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case string:
		return x
	case []byte:
		return string(x)
	case time.Time:
		return x.Format("2006-01-02")
	default:
		return fmt.Sprintf("%v", x)
	}
}

func renderEngine(rows []gignite.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestE2EMixedClients runs concurrent driver clients over real TCP, with
// the plan cache off and on, and checks every result byte-identical
// against in-process execution; after shutdown no connection is still
// counted open and the serving layer's goroutines are gone.
func TestE2EMixedClients(t *testing.T) {
	for _, cache := range []int{0, 64} {
		t.Run(fmt.Sprintf("plancache=%d", cache), func(t *testing.T) { e2eMixedClients(t, cache) })
	}
}

func e2eMixedClients(t *testing.T, planCache int) {
	baseGoroutines := runtime.NumGoroutine()
	eng := tpchEngine(t, func(cfg *gignite.Config) { cfg.PlanCacheSize = planCache })
	srv, addr := startServer(t, eng, server.Config{})

	ids := []int{1, 3, 5, 10}
	want := make(map[int]string)
	for _, id := range ids {
		res, err := eng.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			t.Fatalf("in-process Q%d: %v", id, err)
		}
		want[id] = renderEngine(res.Rows)
	}

	db := sql.OpenDB(&gdriver.Connector{Addr: addr})
	defer func() { _ = db.Close() }()
	db.SetMaxOpenConns(8)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range ids {
				id := ids[(i+j)%len(ids)]
				rows, err := db.Query(tpch.QueryByID(id).SQL)
				if err != nil {
					errs <- fmt.Errorf("client %d Q%d: %w", i, id, err)
					return
				}
				got := renderSQL(t, rows)
				if err := rows.Close(); err != nil {
					errs <- err
					return
				}
				if got != want[id] {
					errs <- fmt.Errorf("client %d Q%d: rows differ from in-process execution", i, id)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if err := db.Close(); err != nil {
		t.Errorf("close pool: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if open := eng.Metrics().Gauges["conns_open"]; open != 0 {
		t.Errorf("conns_open = %g after shutdown, want 0", open)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("engine close: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseGoroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutdown vs %d before; the serving layer leaked",
				runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// slowQuerySQL is an equi-join whose intermediate result is large enough
// to run for a while on loopback hardware, yet bounded: lineitem joined
// to itself on orderkey fans out each order's lines quadratically.
const slowQuerySQL = `SELECT count(*), sum(l1.l_quantity) FROM lineitem l1, lineitem l2, lineitem l3
WHERE l1.l_orderkey = l2.l_orderkey AND l2.l_orderkey = l3.l_orderkey`

// TestMidStreamKillFreesLease kills the client mid-execution and asserts
// the server cancels the query and the governor lease drains back to 0.
func TestMidStreamKillFreesLease(t *testing.T) {
	eng := tpchEngine(t, func(cfg *gignite.Config) {
		cfg.QueryMemLimitBytes = 1 << 40 // turn memory accounting on
		cfg.ExecWorkLimit = -1           // let the join run, not time out
		cfg.ExecRowLimit = 1 << 40
	})
	_, addr := startServer(t, eng, server.Config{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var enc wire.Encoder
	enc.U32(wire.Magic)
	enc.U8(wire.Version)
	enc.Str("")
	if err := wire.WriteFrame(conn, wire.FrameHello, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.FrameHelloOK {
		t.Fatalf("handshake: type=%#x err=%v", typ, err)
	}
	enc.Reset()
	enc.Str(slowQuerySQL)
	if err := wire.WriteFrame(conn, wire.FrameQuery, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Let the query be admitted and get into execution, then kill the
	// connection hard.
	for deadline := time.Now().Add(10 * time.Second); eng.Metrics().Gauges["queries_inflight"] < 1; {
		if time.Now().After(deadline) {
			t.Fatal("slow query never admitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		m := eng.Metrics()
		if m.Gauges["queries_inflight"] == 0 && m.Gauges["mem_reserved_bytes"] == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("query not reaped after client kill: inflight=%g reserved=%g",
				m.Gauges["queries_inflight"], m.Gauges["mem_reserved_bytes"])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOverloadTypedWireError verifies shed queries surface as
// gignite.ErrOverloaded through the driver.
func TestOverloadTypedWireError(t *testing.T) {
	eng := tpchEngine(t, func(cfg *gignite.Config) {
		cfg.MaxConcurrentQueries = 1
		cfg.AdmissionTimeout = 50 * time.Millisecond
		cfg.ExecWorkLimit = -1
		cfg.ExecRowLimit = 1 << 40
	})
	_, addr := startServer(t, eng, server.Config{})

	db := sql.OpenDB(&gdriver.Connector{Addr: addr})
	defer func() { _ = db.Close() }()
	db.SetMaxOpenConns(4)

	// Occupy the single admission slot with the slow join.
	blocker := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		var n, s interface{}
		blocker <- db.QueryRowContext(ctx, slowQuerySQL).Scan(&n, &s)
	}()

	// Wait until the blocker is admitted.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().Gauges["queries_inflight"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker query never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, err := db.Query(tpch.QueryByID(1).SQL)
	if !errors.Is(err, gignite.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded over the wire, got %v", err)
	}
	cancel()
	<-blocker
}

// TestGracefulDrain verifies Shutdown lets the in-flight query finish
// and stream completely, while new connections are turned away.
func TestGracefulDrain(t *testing.T) {
	eng := tpchEngine(t, nil)
	srv := server.New(eng, server.Config{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	addr := srv.Addr().String()

	db := sql.OpenDB(&gdriver.Connector{Addr: addr})
	defer func() { _ = db.Close() }()
	db.SetMaxOpenConns(1)

	want, err := eng.Query(tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}

	// Launch the query, then shut down while it is (likely) in flight.
	type result struct {
		text string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		rows, err := db.Query(tpch.QueryByID(3).SQL)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		text := renderSQL(t, rows)
		resCh <- result{text: text, err: rows.Close()}
	}()
	for deadline := time.Now().Add(20 * time.Second); eng.Metrics().Counters["server_queries_total"] < 1; {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancelT := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelT()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight query dropped during drain: %v", r.err)
	}
	if r.text != renderEngine(want.Rows) {
		t.Fatal("drained query returned different rows")
	}

	// The drained server refuses new connections.
	if conn, err := net.Dial("tcp", addr); err == nil {
		_ = conn.Close()
		t.Fatal("listener still accepting after drain")
	}
	// And the engine closes cleanly afterwards.
	if err := eng.Close(); err != nil {
		t.Fatalf("engine close after drain: %v", err)
	}
}

// TestAuthAndConnLimits exercises the handshake auth stub and MaxConns.
func TestAuthAndConnLimits(t *testing.T) {
	eng := tpchEngine(t, nil)
	_, addr := startServer(t, eng, server.Config{AuthToken: "sesame", MaxConns: 1})

	// Wrong token → CodeAuth.
	db := sql.OpenDB(&gdriver.Connector{Addr: addr, Token: "wrong"})
	if err := db.Ping(); err == nil {
		t.Fatal("wrong token accepted")
	}
	_ = db.Close()

	// Right token works; a second concurrent conn is rejected.
	ok := sql.OpenDB(&gdriver.Connector{Addr: addr, Token: "sesame"})
	defer func() { _ = ok.Close() }()
	ok.SetMaxOpenConns(1)
	var one int64
	if err := ok.QueryRow(`SELECT n_nationkey FROM nation WHERE n_nationkey = 1`).Scan(&one); err != nil || one != 1 {
		t.Fatalf("authed query: %v (got %d)", err, one)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	var enc wire.Encoder
	enc.U32(wire.Magic)
	enc.U8(wire.Version)
	enc.Str("sesame")
	if err := wire.WriteFrame(conn, wire.FrameHello, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.FrameError {
		t.Fatalf("second conn admitted past MaxConns=1 (frame %#x)", typ)
	}
	if se := wire.DecodeError(payload); se.Code != wire.CodeTooManyConns {
		t.Fatalf("rejection code = %d, want CodeTooManyConns", se.Code)
	}
}

// TestLoggerNoInterleave hammers one Logger from concurrent writers and
// checks every emitted line is whole and prefixed.
func TestLoggerNoInterleave(t *testing.T) {
	var buf bytes.Buffer
	log := server.NewLogger(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := log.Func(fmt.Sprintf("conn %d", i))
			for j := 0; j < 200; j++ {
				f("query %d finished in %dms with a moderately long log line payload", j, j*3)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 16*200 {
		t.Fatalf("got %d lines, want %d", len(lines), 16*200)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "[conn ") || !strings.HasSuffix(line, "payload") {
			t.Fatalf("interleaved or unprefixed line: %q", line)
		}
	}
}

// TestFloatModuloByFractionServed: a float % divisor that truncates to 0
// is NULL over the wire as in-process. It used to panic with an integer
// divide by zero — in a fragment goroutine, or in the session goroutine
// where constant folding met it — and take the daemon down with it; the
// session must answer both and then the next statement.
func TestFloatModuloByFractionServed(t *testing.T) {
	eng := tpchEngine(t, nil)
	_, addr := startServer(t, eng, server.Config{})
	db := sql.OpenDB(&gdriver.Connector{Addr: addr})
	defer func() { _ = db.Close() }()
	db.SetMaxOpenConns(1)
	for _, q := range []string{
		`SELECT l_quantity % 0.5 FROM lineitem LIMIT 1`,
		`SELECT 7 % 0.5 FROM region LIMIT 1`,
	} {
		var v interface{}
		if err := db.QueryRow(q).Scan(&v); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if v != nil {
			t.Errorf("%s = %v, want NULL", q, v)
		}
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM region`).Scan(&n); err != nil || n != 5 {
		t.Fatalf("next statement: %d rows, err %v", n, err)
	}
}
