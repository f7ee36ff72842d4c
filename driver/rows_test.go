package driver

import (
	"bufio"
	"context"
	"database/sql/driver"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gignite/internal/types"
	"gignite/internal/wire"
)

// fakeServer is a one-connection wire peer that lies about row widths: it
// completes the handshake, answers the first query with a two-column
// header, one batch holding batch, and Done, then waits for the client to
// hang up.
func fakeServer(t *testing.T, batch ...types.Row) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		var enc wire.Encoder
		send := func(typ uint8) bool {
			err := wire.WriteFrame(c, typ, enc.Bytes())
			enc.Reset()
			return err == nil
		}
		if _, _, err := wire.ReadFrame(br, 0); err != nil { // Hello
			return
		}
		enc.U8(wire.Version)
		enc.U64(1)
		if !send(wire.FrameHelloOK) {
			return
		}
		if _, _, err := wire.ReadFrame(br, 0); err != nil { // Query
			return
		}
		enc.U16(2)
		enc.Str("a")
		enc.Str("b")
		if !send(wire.FrameRowHeader) {
			return
		}
		enc.U16(uint16(len(batch)))
		for _, r := range batch {
			enc.Row(r)
		}
		if !send(wire.FrameRowBatch) {
			return
		}
		enc.U64(uint64(len(batch)))
		enc.I64(0)
		enc.U8(0)
		if !send(wire.FrameDone) {
			return
		}
		_, _ = io.Copy(io.Discard, br)
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-served
	})
	return ln.Addr().String()
}

// TestRowWidthMismatch: a row whose value count disagrees with the result
// header is a protocol error that breaks the connection — never an
// out-of-range panic in the client (wider) or the previous row's values
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
			addr := fakeServer(t, good, tc.bad)
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
