package driver_test

import (
	"context"
	"database/sql"
	"errors"
	"testing"
	"time"

	"gignite"
	gdriver "gignite/driver"
	"gignite/internal/server"
)

// startDB spins up an engine + server on an ephemeral port and opens a
// database/sql handle to it via sql.Open (exercising DSN parsing and the
// registered driver name, not just the Connector).
func startDB(t *testing.T, opt gignite.Option) (*sql.DB, *gignite.Engine) {
	t.Helper()
	eng := gignite.Open(gignite.WithPreset(gignite.ICPlus, 2), opt)
	srv := server.New(eng, server.Config{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	db, err := sql.Open("gignite", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db, eng
}

// TestSQLConformance walks the standard database/sql surface: Ping, DDL
// and INSERT via Exec, typed scans including dates and NULLs.
func TestSQLConformance(t *testing.T) {
	db, _ := startDB(t, nil)
	if err := db.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	stmts := []string{
		`CREATE TABLE t (id INTEGER, name VARCHAR, score DOUBLE, born DATE) AFFINITY KEY (id)`,
		`INSERT INTO t VALUES (1, 'ada', 3.25, DATE '1815-12-10')`,
		`INSERT INTO t VALUES (2, 'alan', 2.5, DATE '1912-06-23')`,
		`INSERT INTO t (id) VALUES (3)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}

	var (
		id    int64
		name  sql.NullString
		score sql.NullFloat64
		born  sql.NullTime
	)
	row := db.QueryRow(`SELECT id, name, score, born FROM t WHERE id = 1`)
	if err := row.Scan(&id, &name, &score, &born); err != nil {
		t.Fatal(err)
	}
	if id != 1 || name.String != "ada" || score.Float64 != 3.25 {
		t.Fatalf("row 1 = (%d, %q, %v)", id, name.String, score.Float64)
	}
	if got := born.Time.Format("2006-01-02"); got != "1815-12-10" {
		t.Fatalf("date scan = %s", got)
	}

	row = db.QueryRow(`SELECT id, name, score, born FROM t WHERE id = 3`)
	if err := row.Scan(&id, &name, &score, &born); err != nil {
		t.Fatal(err)
	}
	if name.Valid || score.Valid || born.Valid {
		t.Fatalf("NULLs not surfaced: %+v %+v %+v", name, score, born)
	}

	var n int64
	if err := db.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil || n != 3 {
		t.Fatalf("count = %d, err %v", n, err)
	}
}

// TestPreparedPlaceholders runs a PrepareContext statement with `?`
// placeholders repeatedly and checks executions after the first skip
// planning (the wire Parse/Execute path hitting Engine.Prepare).
func TestPreparedPlaceholders(t *testing.T) {
	db, eng := startDB(t, nil)
	mustExec(t, db,
		`CREATE TABLE kv (k INTEGER, v VARCHAR) AFFINITY KEY (k)`,
		`INSERT INTO kv VALUES (1, 'one')`,
		`INSERT INTO kv VALUES (2, 'two')`,
		`INSERT INTO kv VALUES (3, 'three')`,
	)
	ctx := context.Background()
	st, err := db.PrepareContext(ctx, `SELECT v FROM kv WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()

	want := map[int64]string{1: "one", 2: "two", 3: "three"}
	for k, v := range want {
		var got string
		if err := st.QueryRowContext(ctx, k).Scan(&got); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got != v {
			t.Fatalf("k=%d: got %q, want %q", k, got, v)
		}
	}
	// 3 executions of one prepared statement: at least 2 skipped planning.
	if skipped := eng.Metrics().Counters["queries_planning_skipped_total"]; skipped < 2 {
		t.Fatalf("queries_planning_skipped_total = %g, want >= 2", skipped)
	}

	// database/sql's auto-prepare path for db.Query with args.
	var got string
	if err := db.QueryRow(`SELECT v FROM kv WHERE k = ?`, int64(2)).Scan(&got); err != nil || got != "two" {
		t.Fatalf("auto-prepare: %q, %v", got, err)
	}

	// Back-to-back prepared and unprepared statements on one TCP
	// connection, each under its own context that is cancelled the moment
	// the statement returns. The next request leaves the instant the
	// previous terminal frame is read, so the server must already be idle
	// by then, and the cancel watcher's Cancel frame — racing the deferred
	// cancel — must never reach the following statement.
	conn, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	pst, err := conn.PrepareContext(ctx, `SELECT v FROM kv WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pst.Close() }()
	lookup := func(i int) (got string, err error) {
		sctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		if i%2 == 0 {
			err = pst.QueryRowContext(sctx, int64(2)).Scan(&got)
		} else {
			err = conn.QueryRowContext(sctx, `SELECT v FROM kv WHERE k = 2`).Scan(&got)
		}
		return got, err
	}
	for i := 0; i < 2000; i++ {
		if got, err := lookup(i); err != nil || got != "two" {
			t.Fatalf("back-to-back statement %d: %q, %v", i, got, err)
		}
	}
}

// TestQueryRowContextCancel cancels a long-running query through the
// context and expects a prompt context error, with the connection still
// usable for the pool afterwards.
func TestQueryRowContextCancel(t *testing.T) {
	db, eng := startDB(t, func(cfg *gignite.Config) {
		cfg.ExecWorkLimit = -1
		cfg.ExecRowLimit = 1 << 40
	})
	mustExec(t, db, `CREATE TABLE nums (n INTEGER) AFFINITY KEY (n)`)
	for i := 0; i < 400; i++ {
		mustExec(t, db, `INSERT INTO nums VALUES (1)`)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Wait until the query is admitted server-side, then cancel.
		deadline := time.Now().Add(10 * time.Second)
		for eng.Metrics().Gauges["queries_inflight"] < 1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	var n int64
	err := db.QueryRowContext(ctx,
		`SELECT count(*) FROM nums a, nums b, nums c, nums d WHERE a.n = b.n AND b.n = c.n AND c.n = d.n`,
	).Scan(&n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}

	// The pool hands back a working connection afterwards.
	if err := db.QueryRow(`SELECT count(*) FROM nums`).Scan(&n); err != nil || n != 400 {
		t.Fatalf("post-cancel query: n=%d err=%v", n, err)
	}
}

// TestDeadlineExceeded maps a context deadline onto the scan error.
func TestDeadlineExceeded(t *testing.T) {
	db, _ := startDB(t, func(cfg *gignite.Config) {
		cfg.ExecWorkLimit = -1
		cfg.ExecRowLimit = 1 << 40
	})
	mustExec(t, db, `CREATE TABLE nums (n INTEGER) AFFINITY KEY (n)`)
	for i := 0; i < 400; i++ {
		mustExec(t, db, `INSERT INTO nums VALUES (1)`)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var n int64
	err := db.QueryRowContext(ctx,
		`SELECT count(*) FROM nums a, nums b, nums c, nums d WHERE a.n = b.n AND b.n = c.n AND c.n = d.n`,
	).Scan(&n)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestDSNAndTx covers DSN forms and the no-transactions contract.
func TestDSNAndTx(t *testing.T) {
	eng := gignite.Open(gignite.WithPreset(gignite.ICPlus, 2))
	srv := server.New(eng, server.Config{AuthToken: "hunter2"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	db, err := sql.Open("gignite", "gignite://"+srv.Addr().String()+"?token=hunter2")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }()
	if err := db.Ping(); err != nil {
		t.Fatalf("URL DSN with token: %v", err)
	}
	if _, err := db.Begin(); !errors.Is(err, gdriver.ErrTxUnsupported) {
		t.Fatalf("Begin: want ErrTxUnsupported, got %v", err)
	}

	if _, err := sql.Open("gignite", "postgres://x"); err == nil {
		// sql.Open defers connector errors for plain Driver, but our
		// DriverContext path surfaces DSN errors eagerly.
		t.Fatal("bad scheme accepted")
	}
}

func mustExec(t *testing.T, db *sql.DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}
