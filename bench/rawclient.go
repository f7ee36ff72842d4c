package main

import (
	"bufio"
	"fmt"
	"net"

	"gignite"
	"gignite/internal/wire"
)

// rawClient speaks the wire protocol frame by frame, without decoding row
// payloads and without database/sql. Its round trip against the same
// server splits the served latency: raw minus in-process is the server's
// share, database/sql minus raw is the driver's.
type rawClient struct {
	addr     string
	prepared []string // statements to Parse on every (re)connect, id = index+1
	conn     net.Conn
	br       *bufio.Reader
	rejects  int
}

func dialRaw(addr string, prepared []string) (*rawClient, error) {
	c := &rawClient{addr: addr, prepared: prepared}
	return c, c.connect()
}

func (c *rawClient) connect() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 32<<10)
	var enc wire.Encoder
	enc.U32(wire.Magic)
	enc.U8(wire.Version)
	enc.Str("")
	if err := c.expect(wire.FrameHello, enc.Bytes(), wire.FrameHelloOK); err != nil {
		return err
	}
	for i, text := range c.prepared {
		enc.Reset()
		enc.U32(uint32(i + 1))
		enc.Str(text)
		if err := c.expect(wire.FrameParse, enc.Bytes(), wire.FrameParseOK); err != nil {
			return err
		}
	}
	return nil
}

// expect sends one frame and requires one reply of the given type.
func (c *rawClient) expect(typ uint8, payload []byte, reply uint8) error {
	if err := wire.WriteFrame(c.conn, typ, payload); err != nil {
		return err
	}
	got, body, err := wire.ReadFrame(c.br, 0)
	if err != nil {
		return err
	}
	if got == wire.FrameError {
		return wire.DecodeError(body)
	}
	if got != reply {
		return fmt.Errorf("raw client: reply %#x, want %#x", got, reply)
	}
	return nil
}

func (c *rawClient) close() {
	_ = wire.WriteFrame(c.conn, wire.FrameQuit, nil) // best effort, the socket closes next
	_ = c.conn.Close()
}

// roundTrip runs statement i (Execute when prepared, Query otherwise) and
// reads the stream to Done, returning the server's row count. It follows
// the same re-issue-once rule as the database/sql client.
func (c *rawClient) roundTrip(i int, text string, args []gignite.Value) (uint64, error) {
	n, started, err := c.once(i, text, args)
	if err != nil && !started && isPipeliningReject(err) {
		c.rejects++
		_ = c.conn.Close() // the server already closed its side
		if err := c.connect(); err != nil {
			return 0, err
		}
		n, _, err = c.once(i, text, args)
	}
	return n, err
}

// once reports started = true as soon as any result frame has arrived.
func (c *rawClient) once(i int, text string, args []gignite.Value) (rows uint64, started bool, err error) {
	var enc wire.Encoder
	typ := wire.FrameQuery
	if c.prepared != nil {
		typ = wire.FrameExecute
		enc.U32(uint32(i + 1))
		enc.U16(uint16(len(args)))
		for _, a := range args {
			enc.Value(a)
		}
	} else {
		enc.Str(text)
	}
	if err := wire.WriteFrame(c.conn, typ, enc.Bytes()); err != nil {
		return 0, false, err
	}
	for {
		typ, body, err := wire.ReadFrame(c.br, 0)
		if err != nil {
			return 0, started, err
		}
		switch typ {
		case wire.FrameRowHeader, wire.FrameRowBatch:
			started = true
		case wire.FrameDone:
			return wire.NewDecoder(body).U64(), true, nil
		case wire.FrameError:
			return 0, started, wire.DecodeError(body)
		default:
			return 0, started, fmt.Errorf("raw client: unexpected frame %#x", typ)
		}
	}
}
