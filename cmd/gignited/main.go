// Command gignited is gignite's network daemon: it serves the engine
// over the binary wire protocol (DESIGN.md §16) so database/sql clients
// using gignite/driver can connect over TCP, and exposes an HTTP sidecar
// with /metrics (Prometheus text format) and /healthz.
//
// Usage:
//
//	gignited [-addr 127.0.0.1:7468] [-http 127.0.0.1:7469]
//	         [-system ic|ic+|ic+m] [-sites 4] [-load tpch|ssb] [-sf 0.01]
//	         [-maxconns N] [-token SECRET] [-idle 5m]
//	         [-admission N] [-maxmem BYTES] [-querymem BYTES]
//	         [-plancache N] [-drain 30s] [-quiet]
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener closes,
// in-flight queries finish and stream out, then the engine closes. A
// second signal — or the -drain deadline — force-closes remaining
// sessions (canceling their queries). A clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gignite"
	"gignite/internal/engineflags"
	"gignite/internal/harness"
	"gignite/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	ef := engineflags.Bind(flag.CommandLine, 64)
	ef.BindGovernance(flag.CommandLine)
	addr := flag.String("addr", "127.0.0.1:7468", "wire-protocol listen address")
	httpAddr := flag.String("http", "127.0.0.1:7469", "HTTP sidecar address for /metrics and /healthz (empty disables)")
	sites := flag.Int("sites", 4, "simulated processing sites")
	load := flag.String("load", "", "preload a benchmark: tpch or ssb")
	sf := flag.Float64("sf", 0.01, "benchmark scale factor")
	maxconns := flag.Int("maxconns", 0, "max concurrently open client connections (0 = unbounded)")
	token := flag.String("token", "", "require this auth token in the client handshake")
	idle := flag.Duration("idle", server.DefaultIdleTimeout, "close sessions idle for this long (negative = never)")
	drain := flag.Duration("drain", gignite.DefaultDrainTimeout, "graceful-drain deadline after SIGTERM")
	quiet := flag.Bool("quiet", false, "suppress per-connection logging")
	flag.Parse()

	opts, err := ef.Options(*sites, *sf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gignited: %v\n", err)
		return 2
	}
	var log *server.Logger
	if !*quiet {
		log = server.NewLogger(os.Stderr)
	}
	opts = append(opts, func(c *gignite.Config) {
		// Engine logs (slow queries etc.) share the serialized writer.
		if log != nil {
			c.Logger = log.Func("engine")
		}
	})
	eng := gignite.Open(opts...)

	if *load != "" {
		w, err := harness.ParseWorkload(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gignited: %v\n", err)
			return 2
		}
		log.Printf("loading %s at SF %g...", w, *sf)
		if err := w.Setup(eng, *sf); err != nil {
			fmt.Fprintf(os.Stderr, "gignited: %v\n", err)
			return 1
		}
	}

	srv := server.New(eng, server.Config{
		Addr:        *addr,
		MaxConns:    *maxconns,
		AuthToken:   *token,
		IdleTimeout: *idle,
		Logger:      log,
	})
	if err := srv.Listen(); err != nil {
		fmt.Fprintf(os.Stderr, "gignited: %v\n", err)
		return 1
	}
	log.Printf("serving wire protocol on %s", srv.Addr())

	var httpSrv *http.Server
	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = fmt.Fprint(w, eng.Metrics().Prometheus())
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			_, _ = fmt.Fprintln(w, "ok")
		})
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gignited: http sidecar: %v\n", err)
			return 1
		}
		httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := httpSrv.Serve(hln); err != nil && err != http.ErrServerClosed {
				log.Printf("http sidecar: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", hln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		log.Printf("received %v, draining (deadline %v)...", sig, *drain)
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(os.Stderr, "gignited: %v\n", err)
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		// A second signal cuts the drain short.
		<-sigc
		log.Printf("second signal, force-closing")
		cancel()
	}()

	code := 0
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
		code = 1
	}
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	if err := eng.CloseContext(ctx); err != nil {
		log.Printf("engine close: %v", err)
		code = 1
	}
	log.Printf("shutdown complete")
	return code
}
