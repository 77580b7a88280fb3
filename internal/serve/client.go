package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	otrace "repro/internal/obs/trace"
)

// Client speaks the binary protocol to a running Server.
//
// Requests pipeline: Send may be called any number of times before the
// matching Recv calls, and results come back in send order. The send and
// receive halves are independent, so one goroutine may Send while another
// Recvs (the pattern the load driver uses); Send/Send and Recv/Recv from
// multiple goroutines need external locking.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	preds  []string
	shards int
	prior  uint64 // server lifetime events at connect
	sbuf   []byte // send scratch
	rbuf   []byte // recv scratch
}

// BatchResult is the server's tally for one events batch.
type BatchResult struct {
	Events  uint64
	Correct []uint64 // indexed like Predictors()
}

// Dial connects and consumes the server's hello.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
	frame, err := readFrame(c.br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: reading hello: %w", err)
	}
	if frame[0] != msgHello {
		conn.Close()
		return nil, fmt.Errorf("serve: expected hello, got message type %d", frame[0])
	}
	c.shards, c.prior, c.preds, err = decodeHello(frame[1:])
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// PriorEvents returns how many events the server had already processed
// (across all clients, lifetime) when this connection was established —
// zero means the predictor tables were untrained at connect.
func (c *Client) PriorEvents() uint64 { return c.prior }

// Predictors returns the server's predictor bank names in result order.
func (c *Client) Predictors() []string { return append([]string(nil), c.preds...) }

// Shards returns the server's shard count.
func (c *Client) Shards() int { return c.shards }

// Send enqueues one untraced events batch (buffered; flushed when the
// buffer fills or Flush/CloseWrite is called).
func (c *Client) Send(evs []Event) error {
	return c.SendTraced(evs, otrace.Context{})
}

// SendTraced is Send carrying a trace context: the server records spans
// for this request at every stage it crosses and tail-samples it into
// GET /trace when it finishes slow, hits a degraded path, or carries the
// head-sampling flag. The server serves requests with an invalid (zero)
// context untraced.
func (c *Client) SendTraced(evs []Event, ctx otrace.Context) error {
	c.sbuf = appendEvents(c.sbuf[:0], evs, ctx)
	return writeFrame(c.bw, c.sbuf)
}

// Flush pushes any buffered frames to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads the next result, in send order. After CloseWrite, io.EOF
// signals that every outstanding result has been received. The returned
// Correct slice is freshly allocated; loops that drain many results
// should use RecvInto.
func (c *Client) Recv() (BatchResult, error) {
	res := BatchResult{Correct: make([]uint64, len(c.preds))}
	if err := c.RecvInto(&res); err != nil {
		return BatchResult{}, err
	}
	return res, nil
}

// RecvInto is Recv reusing the caller's result: res.Correct is resized in
// place (reallocated only when its capacity is short), so a loop that
// passes the same BatchResult receives with zero allocation in steady
// state.
func (c *Client) RecvInto(res *BatchResult) error {
	frame, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return err
	}
	c.rbuf = frame[:0]
	switch frame[0] {
	case msgResult:
		if cap(res.Correct) < len(c.preds) {
			res.Correct = make([]uint64, len(c.preds))
		}
		res.Correct = res.Correct[:len(c.preds)]
		res.Events, err = decodeResultInto(frame[1:], res.Correct)
		return err
	case msgError:
		return errors.New("serve: server error: " + decodeError(frame[1:]))
	default:
		return fmt.Errorf("serve: unexpected message type %d", frame[0])
	}
}

// Do is the synchronous round trip: send one batch and wait for its
// result.
func (c *Client) Do(evs []Event) (BatchResult, error) {
	if err := c.Send(evs); err != nil {
		return BatchResult{}, err
	}
	if err := c.Flush(); err != nil {
		return BatchResult{}, err
	}
	return c.Recv()
}

// CloseWrite flushes and half-closes the connection: the server finishes
// the outstanding requests, sends their results and closes, so Recv
// drains to io.EOF.
func (c *Client) CloseWrite() error {
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if tc, ok := c.conn.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return errors.New("serve: connection does not support half-close")
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }
