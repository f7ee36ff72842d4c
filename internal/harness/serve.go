package harness

import (
	"context"
	"database/sql"
	"fmt"
	"sync"
	"time"

	"gignite/driver"
	"gignite/internal/server"
	"gignite/internal/tpch"
)

// queriesPerClient bounds each ServeAQL terminal's randomized
// submissions: the wall-clock analogue of the paper's 300 s window, kept
// small so CI stays fast.
const queriesPerClient = 6

// ServeAQL measures average query latency for each of opts.Clients
// concurrent network clients: a wire-protocol server is started on an
// ephemeral loopback port in front of the IC+M engine at the first scale
// factor and site count, and each terminal submits randomized
// paper-included TPC-H queries back-to-back through database/sql. Unlike
// Table3's analytic terminal simulation, the measured latency includes
// the wire protocol, the driver and the serving layer: the report's AQL
// cells are wall-clock means, while the modeled-time columns of Table 3
// remain the paper-faithful numbers.
func ServeAQL(opts Options) (*Report, error) {
	sf, sites := opts.SFs[0], opts.Sites[0]
	eng, err := opts.Env.Engine(TPCH, ICPM, sites, sf)
	if err != nil {
		return nil, err
	}
	srv := server.New(eng, server.Config{})
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	queries := tpchComparable()
	rep := NewReport(
		fmt.Sprintf("Network AQL: %d-site IC+M over TCP at SF %g (wall-clock seconds)", sites, sf),
		"AQL", "queries", "errors")
	for _, clients := range opts.Clients {
		db := sql.OpenDB(&driver.Connector{Addr: srv.Addr().String()})
		db.SetMaxOpenConns(clients)
		aql, completed, failed := runTerminals(db, queries, clients)
		if err := db.Close(); err != nil {
			return nil, err
		}
		rep.Add(fmt.Sprintf("%d clients", clients),
			fmt.Sprintf("%.4f", aql), fmt.Sprintf("%d", completed), fmt.Sprintf("%d", failed))
		if failed > 0 {
			return rep, fmt.Errorf("serve AQL: %d of %d queries failed at %d clients",
				failed, completed+failed, clients)
		}
	}
	rep.Note("terminals submit randomized paper-included TPC-H queries over the wire protocol")
	rep.Note("latencies are wall-clock (driver round-trip), not modeled time")
	return rep, nil
}

// runTerminals drives `clients` goroutines, each submitting
// queriesPerClient randomized queries sequentially, and returns the mean
// wall latency in seconds plus completion counts.
func runTerminals(db *sql.DB, queries []tpch.Query, clients int) (aql float64, completed, failed int) {
	var mu sync.Mutex
	var latencySum float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Same splitmix-style draw as simulateAQL, seeded per terminal,
			// so runs are reproducible.
			state := uint64(c)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
			for i := 0; i < queriesPerClient; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				q := queries[(state>>33)%uint64(len(queries))]
				start := time.Now()
				err := drainQuery(db, q.SQL)
				lat := time.Since(start).Seconds()
				mu.Lock()
				if err != nil {
					failed++
				} else {
					completed++
					latencySum += lat
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if completed > 0 {
		aql = latencySum / float64(completed)
	}
	return aql, completed, failed
}

// drainQuery runs one query and consumes its entire result stream (the
// latency of a terminal includes receiving all rows).
func drainQuery(db *sql.DB, sqlText string) error {
	rows, err := db.Query(sqlText)
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		_ = rows.Close()
		return err
	}
	return rows.Close()
}
