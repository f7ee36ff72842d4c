package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gignite"
	gdriver "gignite/driver"
	"gignite/internal/harness"
	"gignite/internal/server"
	"gignite/internal/tpch"
	"gignite/internal/wire"
)

// serveIdentityQueries are the acceptance queries whose network results
// must match in-process execution byte for byte.
var serveIdentityQueries = []int{1, 3, 5, 10}

// serveSlowSQL keeps a query slot busy long enough to race against: the
// triple self-equi-join fans every order's lineitems out cubically.
const serveSlowSQL = `SELECT count(*), sum(l1.l_quantity) FROM lineitem l1, lineitem l2, lineitem l3
WHERE l1.l_orderkey = l2.l_orderkey AND l2.l_orderkey = l3.l_orderkey`

// runServe is the serving-layer smoke check (DESIGN.md §16): a wire
// server on a random loopback port, 8 concurrent database/sql clients,
// byte-identical rows vs in-process execution with the plan cache on and
// off, prepared statements skipping planning (observed through the HTTP
// /metrics endpoint), overload surfacing as a typed wire error, a
// mid-stream client kill releasing its governor lease, a graceful drain
// finishing the in-flight query, and zero leaked goroutines or
// connections at the end. It exits non-zero on any violation — the CI
// serve-smoke job relies on that.
func runServe(opts harness.Options, metricsOut string) {
	sf := opts.SFs[0]
	sites := opts.Sites[0]
	sk := &smoke{name: "serve"}
	baseGoroutines := runtime.NumGoroutine()

	open := func(mut func(*gignite.Config)) *gignite.Engine {
		cfg := harness.ConfigFor(harness.ICPM, sites, sf)
		cfg.ExecParallelism = opts.Env.Parallelism
		// The huge per-query budget only turns memory accounting on, so
		// mem_reserved_bytes exists for the lease-release check.
		cfg.QueryMemLimitBytes = 1 << 40
		if mut != nil {
			mut(&cfg)
		}
		e := gignite.Open(gignite.WithConfig(cfg))
		if err := tpch.Setup(e, sf); err != nil {
			fatalf("serve: %v", err)
		}
		return e
	}
	startServer := func(eng *gignite.Engine, cfg server.Config) *server.Server {
		srv := server.New(eng, cfg)
		if err := srv.Listen(); err != nil {
			fatalf("serve: %v", err)
		}
		go func() { _ = srv.Serve() }()
		return srv
	}
	shutdown := func(srv *server.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			sk.failf("shutdown: %v", err)
		}
	}

	// Phase A: byte-identity under concurrency, plan cache off then on.
	for _, cache := range []int{0, 64} {
		eng := open(func(cfg *gignite.Config) { cfg.PlanCacheSize = cache })
		want := make(map[int]string, len(serveIdentityQueries))
		for _, id := range serveIdentityQueries {
			res, err := eng.Query(tpch.QueryByID(id).SQL)
			if err != nil {
				fatalf("serve: in-process Q%d: %v", id, err)
			}
			want[id] = rowsText(res.Rows)
		}
		srv := startServer(eng, server.Config{})
		db := sql.OpenDB(&gdriver.Connector{Addr: srv.Addr().String()})
		db.SetMaxOpenConns(8)
		const clients = 8
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j, id := range serveIdentityQueries {
					got, err := sqlRowsText(db, tpch.QueryByID(id).SQL)
					mu.Lock()
					switch {
					case err != nil:
						sk.failf("cache=%d client %d run %d Q%d: %v", cache, c, j, id, err)
					case got != want[id]:
						sk.failf("cache=%d client %d Q%d: network rows differ from in-process", cache, c, id)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if err := db.Close(); err != nil {
			sk.failf("cache=%d: close pool: %v", cache, err)
		}
		shutdown(srv)
		if err := eng.Close(); err != nil {
			sk.failf("cache=%d: engine close: %v", cache, err)
		}
		fmt.Printf("phase A (identity, cache=%d): %d clients x %d queries byte-identical\n",
			cache, clients, len(serveIdentityQueries))
	}

	// Phase B: prepared statements over the wire skip planning, observed
	// through the HTTP /metrics endpoint a la gignited.
	engB := open(nil)
	srvB := startServer(engB, server.Config{})
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("serve: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprint(w, engB.Metrics().Prometheus())
	})
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(hln) }()

	dbB := sql.OpenDB(&gdriver.Connector{Addr: srvB.Addr().String()})
	const preparedRuns = 5
	st, err := dbB.Prepare(`SELECT n_name FROM nation WHERE n_nationkey = ?`)
	if err != nil {
		fatalf("serve: prepare: %v", err)
	}
	for i := 0; i < preparedRuns; i++ {
		var name string
		if err := st.QueryRow(int64(i)).Scan(&name); err != nil {
			fatalf("serve: prepared run %d: %v", i, err)
		}
	}
	_ = st.Close()
	promText, err := fetchMetrics("http://" + hln.Addr().String() + "/metrics")
	if err != nil {
		fatalf("serve: %v", err)
	}
	if strings.TrimSpace(promText) == "" {
		sk.failf("/metrics returned an empty body")
	}
	skipped := promValue(promText, "queries_planning_skipped_total")
	if skipped < preparedRuns-1 {
		sk.failf("queries_planning_skipped_total = %g after %d executions of one prepared statement; want >= %d",
			skipped, preparedRuns, preparedRuns-1)
	}
	fmt.Printf("phase B (prepared): %g of %d executions skipped planning (via /metrics)\n",
		skipped, preparedRuns)
	_ = dbB.Close()
	_ = httpSrv.Close()
	shutdown(srvB)
	metricsArtifact := promText
	if err := engB.Close(); err != nil {
		sk.failf("phase B engine close: %v", err)
	}

	// Phase C: overload surfaces as a typed wire error through the driver.
	engC := open(func(cfg *gignite.Config) {
		cfg.MaxConcurrentQueries = 1
		cfg.AdmissionTimeout = 50 * time.Millisecond
		cfg.ExecWorkLimit = -1
		cfg.ExecRowLimit = 1 << 40
	})
	srvC := startServer(engC, server.Config{})
	dbC := sql.OpenDB(&gdriver.Connector{Addr: srvC.Addr().String()})
	dbC.SetMaxOpenConns(2)
	blockerCtx, cancelBlocker := context.WithCancel(context.Background())
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		var a, b interface{}
		_ = dbC.QueryRowContext(blockerCtx, serveSlowSQL).Scan(&a, &b)
	}()
	if !waitGauge(engC, "queries_inflight", 1, 10*time.Second) {
		sk.failf("phase C: blocker query never admitted")
	} else {
		_, err := dbC.Query(tpch.QueryByID(1).SQL)
		if !errors.Is(err, gignite.ErrOverloaded) {
			sk.failf("phase C: want gignite.ErrOverloaded over the wire, got %v", err)
		} else {
			fmt.Println("phase C (overload): shed query surfaced as ErrOverloaded through database/sql")
		}
	}
	cancelBlocker()
	<-blockerDone
	_ = dbC.Close()
	shutdown(srvC)

	// Phase D: killing the client mid-query cancels it server-side and
	// releases the governor lease.
	engD := open(func(cfg *gignite.Config) {
		cfg.ExecWorkLimit = -1
		cfg.ExecRowLimit = 1 << 40
	})
	srvD := startServer(engD, server.Config{})
	conn, err := net.Dial("tcp", srvD.Addr().String())
	if err != nil {
		fatalf("serve: %v", err)
	}
	var enc wire.Encoder
	enc.U32(wire.Magic)
	enc.U8(wire.Version)
	enc.Str("")
	if err := wire.WriteFrame(conn, wire.FrameHello, enc.Bytes()); err != nil {
		fatalf("serve: %v", err)
	}
	if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.FrameHelloOK {
		fatalf("serve: handshake: type=%#x err=%v", typ, err)
	}
	enc.Reset()
	enc.Str(serveSlowSQL)
	if err := wire.WriteFrame(conn, wire.FrameQuery, enc.Bytes()); err != nil {
		fatalf("serve: %v", err)
	}
	if !waitGauge(engD, "queries_inflight", 1, 10*time.Second) {
		sk.failf("phase D: slow query never admitted")
	}
	_ = conn.Close() // hard kill mid-execution
	if !waitGauge(engD, "queries_inflight", 0, 20*time.Second) ||
		!waitGauge(engD, "mem_reserved_bytes", 0, 20*time.Second) {
		m := engD.Metrics()
		sk.failf("phase D: lease not released after client kill: inflight=%g reserved=%g",
			m.Gauges["queries_inflight"], m.Gauges["mem_reserved_bytes"])
	} else {
		fmt.Println("phase D (kill): client disconnect canceled the query and freed its lease")
	}
	shutdown(srvD)
	_ = engD.Close()

	// Phase E: graceful drain finishes the in-flight query, then the
	// engine closes cleanly (gignited's SIGTERM path, exit 0).
	engE := open(nil)
	wantE, err := engE.Query(tpch.QueryByID(3).SQL)
	if err != nil {
		fatalf("serve: %v", err)
	}
	srvE := startServer(engE, server.Config{})
	dbE := sql.OpenDB(&gdriver.Connector{Addr: srvE.Addr().String()})
	type qres struct {
		text string
		err  error
	}
	resCh := make(chan qres, 1)
	go func() {
		text, err := sqlRowsText(dbE, tpch.QueryByID(3).SQL)
		resCh <- qres{text, err}
	}()
	time.Sleep(10 * time.Millisecond)
	shutdown(srvE) // fails the smoke if the drain errors
	r := <-resCh
	switch {
	case r.err != nil:
		sk.failf("phase E: in-flight query dropped during drain: %v", r.err)
	case r.text != rowsText(wantE.Rows):
		sk.failf("phase E: drained query returned different rows")
	default:
		fmt.Println("phase E (drain): in-flight query completed and streamed during shutdown")
	}
	_ = dbE.Close()
	if err := engE.Close(); err != nil {
		sk.failf("phase E: engine close after drain: %v", err)
	}
	_ = engC.Close()

	// Phase F: nothing leaked — all sessions gone, goroutines back to
	// (about) the baseline.
	for _, check := range []struct {
		name string
		eng  *gignite.Engine
	}{{"B", engB}, {"D", engD}, {"E", engE}} {
		if open := check.eng.Metrics().Gauges["conns_open"]; open != 0 {
			sk.failf("phase F: engine %s still reports %g open connections", check.name, open)
		}
	}
	leaked := -1
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			leaked = 0
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if leaked != 0 {
		sk.failf("phase F: %d goroutines at exit vs %d at start; serving layer leaked",
			runtime.NumGoroutine(), baseGoroutines)
	} else {
		fmt.Println("phase F (leaks): goroutines and connections back to baseline")
	}

	if metricsOut != "" {
		writeJSON(metricsOut, map[string]interface{}{
			"prometheus":      metricsArtifact,
			"engine_snapshot": engB.Metrics(),
		})
	}
	sk.exit()
}

// runServeAQL prints the harness's multi-client-over-TCP AQL report.
func runServeAQL(opts harness.Options, clients int) {
	rep, err := harness.ServeAQL(harness.ServeAQLOptions{
		Clients: []int{2, clients},
		SF:      opts.SFs[0],
		Sites:   opts.Sites[0],
		Env:     opts.Env,
	})
	if rep != nil {
		fmt.Println(rep.Render())
	}
	if err != nil {
		fatalf("serveaql: %v", err)
	}
}

// sqlRowsText renders a database/sql result exactly like
// types.Row.String renders engine rows, so network results can be
// compared byte for byte against in-process execution.
func sqlRowsText(db *sql.DB, query string) (string, error) {
	rows, err := db.Query(query)
	if err != nil {
		return "", err
	}
	defer func() { _ = rows.Close() }()
	cols, err := rows.Columns()
	if err != nil {
		return "", err
	}
	vals := make([]interface{}, len(cols))
	for i := range vals {
		vals[i] = new(interface{})
	}
	var sb strings.Builder
	for rows.Next() {
		if err := rows.Scan(vals...); err != nil {
			return "", err
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = sqlValueText(*(v.(*interface{})))
		}
		sb.WriteString("[" + strings.Join(parts, ", ") + "]\n")
	}
	if err := rows.Err(); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func sqlValueText(v interface{}) string {
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

// fetchMetrics GETs a metrics endpoint and returns the body.
func fetchMetrics(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// promValue extracts one sample from Prometheus text exposition.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// waitGauge polls an engine gauge until it reaches want or the timeout
// elapses.
func waitGauge(e *gignite.Engine, name string, want float64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if e.Metrics().Gauges[name] == want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
