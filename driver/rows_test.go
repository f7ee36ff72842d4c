package driver

import (
	"bufio"
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gignite"
	"gignite/internal/server"
	"gignite/internal/tpch"
	"gignite/internal/types"
	"gignite/internal/wire"
)

// TestRowWidthMismatch: a batch whose column count disagrees with the
// result header is a protocol error that breaks the connection — never an
// out-of-range panic in the client (wider) or the previous batch's values
// showing through database/sql's reused dest (narrower).
func TestRowWidthMismatch(t *testing.T) {
	good := types.Row{types.NewInt(1), types.NewInt(2)}
	for _, tc := range []struct {
		name string
		bad  types.Row
	}{
		{"wider", types.Row{types.NewInt(3), types.NewInt(4), types.NewInt(5)}},
		{"narrower", types.Row{types.NewInt(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := replayServer(t, always(resultFrames([]string{"a", "b"}, []types.Row{good}, []types.Row{tc.bad})))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dc, err := (&Connector{Addr: addr}).Connect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			c := dc.(*conn)
			t.Cleanup(func() { _ = c.Close() })
			dr, err := c.QueryContext(ctx, "SELECT a, b FROM t", nil)
			if err != nil {
				t.Fatal(err)
			}
			r := dr.(*rows)
			dest := make([]driver.Value, len(r.Columns()))
			if err := r.Next(dest); err != nil || dest[0] != int64(1) || dest[1] != int64(2) {
				t.Fatalf("first row: %v, %v", dest, err)
			}
			for err == nil {
				err = r.Next(dest)
			}
			if err == io.EOF || !strings.Contains(err.Error(), "protocol error") {
				t.Fatalf("stream ended with %v, want a protocol error", err)
			}
			if c.IsValid() {
				t.Error("connection still valid after a protocol error")
			}
			if r.stop != nil {
				t.Error("cancel watcher still armed after a protocol error")
			}
		})
	}
}

func TestWireValueDate(t *testing.T) {
	for _, tc := range []struct {
		at   string
		days int64
	}{
		{"1970-01-01T00:00:00Z", 0},
		{"1970-01-02T23:59:59Z", 1},
		{"1969-12-31T12:00:00Z", -1}, // truncating division said day 0
		{"1969-12-31T00:00:00Z", -1},
		{"1969-12-30T23:59:59Z", -2},
	} {
		at, err := time.Parse(time.RFC3339, tc.at)
		if err != nil {
			t.Fatal(err)
		}
		v, err := wireValue(at)
		if err != nil || v != types.NewDate(tc.days) {
			t.Errorf("wireValue(%s) = %v, %v; want day %d", tc.at, v, err, tc.days)
		}
	}
}

// replayServer is a wire peer that answers the handshake on every
// connection and then each Query frame with reply(its SQL), closing its
// side of the connection for writing after the reply when hangUp is set:
// a test controls every byte the driver reads, and can count what the
// driver alone allocates.
func replayServer(t testing.TB, reply func(sql string) (answer []byte, hangUp bool)) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				replay(c, reply)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

func replay(c net.Conn, reply func(sql string) ([]byte, bool)) {
	br := bufio.NewReader(c)
	var enc wire.Encoder
	if _, _, err := wire.ReadFrame(br, 0); err != nil { // Hello
		return
	}
	enc.U8(wire.Version)
	enc.U64(1)
	if wire.WriteFrame(c, wire.FrameHelloOK, enc.Bytes()) != nil {
		return
	}
	for {
		typ, payload, err := wire.ReadFrame(br, 0)
		if err != nil || typ == wire.FrameQuit {
			return
		}
		if typ != wire.FrameQuery {
			continue
		}
		answer, hangUp := reply(wire.NewDecoder(payload).Str())
		if _, err := c.Write(answer); err != nil {
			return
		}
		if hangUp {
			_ = c.(*net.TCPConn).CloseWrite()
		}
	}
}

// always answers every query with frames.
func always(frames []byte) func(string) ([]byte, bool) {
	return func(string) ([]byte, bool) { return frames, false }
}

// resultFrames encodes a result stream as a session sends it: a RowHeader
// naming cols, then each of batches in RowBatch frames of at most
// server.DefaultBatchRows rows — each batch encoded as a stream of as many
// columns as its rows have, so a test can make one disagree with the
// header — and Done.
func resultFrames(cols []string, batches ...[]types.Row) []byte {
	var (
		out   []byte
		enc   wire.Encoder
		total int
	)
	enc.BeginFrame()
	enc.U16(uint16(len(cols)))
	for _, c := range cols {
		enc.Str(c)
	}
	out = append(out, enc.EndFrame(wire.FrameRowHeader)...)
	for _, rows := range batches {
		var be wire.BatchEncoder
		be.Reset(len(rows[0]))
		for total += len(rows); len(rows) > 0; {
			enc.BeginFrame()
			rows = rows[be.Append(&enc, rows, server.DefaultBatchRows):]
			out = append(out, enc.EndFrame(wire.FrameRowBatch)...)
		}
	}
	enc.BeginFrame()
	enc.U64(uint64(total))
	enc.I64(0)
	enc.U8(0)
	return append(out, enc.EndFrame(wire.FrameDone)...)
}

// TestDriverAllocationsPerRow pins what the driver allocates per row of
// the served_stream benchmark's 8-column orders projection scanned into
// *any. Still boxed per cell: the unique ints and floats (o_orderkey,
// o_totalprice). Boxed once per distinct value per stream, through the
// column box tables: the repeating ints and dates (o_custkey, o_orderdate;
// a small int like o_shippriority is never boxed). Boxed once per
// dictionary entry: the strings. Nothing per row or batch. The budget is
// 3; boxing every int, float and date cell took ~4.1, row-at-a-time
// decoding ~10.
func TestDriverAllocationsPerRow(t *testing.T) {
	const q = `SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
       o_orderdate, o_orderpriority, o_clerk, o_shippriority
FROM orders
WHERE o_orderdate >= DATE '1992-01-01' AND o_orderdate < DATE '1995-01-01'`
	eng := gignite.Open(gignite.WithPreset(gignite.ICPlusM, 4))
	if err := tpch.Setup(eng, 0.01); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(&Connector{Addr: replayServer(t, always(resultFrames(res.Columns, res.Rows)))})
	defer func() { _ = db.Close() }()
	db.SetMaxOpenConns(1)
	scan := func() int {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = rows.Close() }()
		vals := make([]any, len(res.Columns))
		dest := make([]any, len(vals))
		for i := range vals {
			dest[i] = &vals[i]
		}
		n := 0
		for ; rows.Next(); n++ {
			if err := rows.Scan(dest...); err != nil {
				t.Fatal(err)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := scan(); n != len(res.Rows) { // and warm the connection
		t.Fatalf("scanned %d rows, want %d", n, len(res.Rows))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for range 3 {
		n += scan()
	}
	runtime.ReadMemStats(&after)
	if perRow := float64(after.Mallocs-before.Mallocs) / float64(n); perRow > 3 {
		t.Errorf("%.2f objects per row over %d rows, budget 3", perRow, n)
	} else {
		t.Logf("%.2f objects per row over %d rows", perRow, n)
	}
}

// TestIdleConnKeepsBoundedTables: a 5,000-row result of 40 int columns
// grows every column's box table to its cap; once it ends, the idle
// connection retains at most wire.IdleFrameBytes of box tables (the first
// columns'), and a one-row query that follows allocates no new table.
func TestIdleConnKeepsBoundedTables(t *testing.T) {
	const ncols = 40
	cols := make([]string, ncols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	ints, bools := make([]types.Row, 5000), make([]types.Row, 5000)
	for r := range ints {
		ints[r], bools[r] = make(types.Row, ncols), make(types.Row, ncols)
		for c := range ints[r] {
			ints[r][c] = types.NewInt(1<<40 + int64(c)<<32 + int64(r))
			bools[r][c] = types.NewBool(r%2 == 0)
		}
	}
	replies := map[string][]byte{
		"ints":  resultFrames(cols, ints),
		"bools": resultFrames(cols, bools),
		"one":   resultFrames(cols[:1], []types.Row{{types.NewInt(1 << 40)}}),
	}
	addr := replayServer(t, func(q string) ([]byte, bool) { return replies[q], false })
	ctx := context.Background()
	dc, err := (&Connector{Addr: addr}).Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c := dc.(*conn)
	defer func() { _ = c.Close() }()
	query := func(q string) {
		dr, err := c.QueryContext(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]driver.Value, len(dr.Columns()))
		for err == nil {
			err = dr.Next(dest)
		}
		if err != io.EOF {
			t.Fatal(err)
		}
		_ = dr.Close()
	}
	mallocs := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	// A new table is one more object in the first one-row query than in
	// the next; the least difference of three rounds is free of noise.
	extra := int64(math.MaxInt64)
	for range 3 {
		query("ints")
		first := mallocs(func() { query("one") })
		extra = min(extra, first-mallocs(func() { query("one") }))
	}
	if extra > 0 {
		t.Errorf("the first one-row query after a wide result allocated %d more objects than the next", extra)
	}

	// What the decoder retains after a result, less what it retains after
	// one of the same shape that no box table serves, is its tables.
	live := func() int64 {
		runtime.GC()
		runtime.GC() // and what sync.Pools held
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	retained := func(q string) int64 {
		query(q)
		with := live()
		c.batch = wire.NewBatchDecoder(sqlValue)
		return with - live()
	}
	// A kept 32-byte slot may still hold the last stream's int box: 8
	// bytes, which the allocator may round to 16 (it does under -race).
	// The heap also moves by a few KiB between the two measurements.
	tables := retained("ints") - retained("bools")
	if limit := int64(wire.IdleFrameBytes*3/2 + 64<<10); tables > limit || tables < wire.IdleFrameBytes/2 {
		t.Errorf("the idle decoder retains %d bytes of box tables and their boxes, want at most %d", tables, limit)
	}
}

// FuzzDriverReplies: whatever a peer answers a query with after the
// handshake, the driver never panics; a reply it cannot read breaks the
// connection, while an Error frame leaves it usable; and a second
// connection of the same pool keeps working.
func FuzzDriverReplies(f *testing.F) {
	good := resultFrames([]string{"k", "d"}, []types.Row{{types.NewInt(1 << 40), types.NewDate(9000)}})
	f.Fuzz(func(t *testing.T, reply []byte) {
		addr := replayServer(t, func(q string) ([]byte, bool) {
			if q == "good" {
				return good, false
			}
			return reply, true // then EOF: a truncated frame cannot hang the driver
		})
		db := sql.OpenDB(&Connector{Addr: addr})
		defer func() { _ = db.Close() }()
		db.SetMaxOpenConns(2)
		ctx := context.Background()
		bad, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = bad.Close() }()
		ok, err := db.Conn(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ok.Close() }()
		// The reply may hold several results; each statement reads on.
		for range 3 {
			_, err := scanSome(ctx, bad, "fuzz")
			valid := bad.Raw(func(dc any) error {
				if !dc.(*conn).IsValid() {
					return driver.ErrBadConn
				}
				return nil
			}) == nil // the pool closed it, or it is marked broken
			switch {
			case err != nil && !fromErrorFrame(err) && valid:
				t.Fatalf("%v: the connection is still valid", err)
			case err != nil && fromErrorFrame(err) && !valid:
				t.Fatalf("an Error frame (%v) broke the connection", err)
			case !valid:
				return
			}
		}
		got, err := scanSome(ctx, ok, "good")
		if err != nil || len(got) != 1 || got[0][0] != int64(1<<40) || !got[0][1].(time.Time).Equal(types.NewDate(9000).Time()) {
			t.Fatalf("the second connection read %v, %v", got, err)
		}
	})
}

// scanSome runs q on c and scans at most 65,536 rows into *any.
func scanSome(ctx context.Context, c *sql.Conn, q string) ([][]any, error) {
	rows, err := c.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	defer func() { _ = rows.Close() }()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	var out [][]any
	for len(out) < 1<<16 && rows.Next() {
		vals := make([]any, len(cols))
		dest := make([]any, len(cols))
		for i := range vals {
			dest[i] = &vals[i]
		}
		if err := rows.Scan(dest...); err != nil {
			return out, err
		}
		out = append(out, vals)
	}
	return out, rows.Err()
}

// fromErrorFrame reports whether err is one the driver rebuilds from an
// Error frame.
func fromErrorFrame(err error) bool {
	var se *wire.ServerError
	for _, sentinel := range []error{gignite.ErrOverloaded, gignite.ErrMemoryExceeded, gignite.ErrQueryTimeout, gignite.ErrEngineClosed, context.Canceled} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return errors.As(err, &se)
}
