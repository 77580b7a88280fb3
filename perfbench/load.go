package main

import (
	"errors"
	"fmt"
	"io"
	"sync"

	otrace "repro/internal/obs/trace"
	"repro/internal/serve"
)

// stamp pairs an outstanding request with its send time and its root
// span; results come back in send order, so the receiver pops stamps
// FIFO.
type stamp struct {
	t  int64
	sp span
}

// conn drives one client connection: a sender goroutine writes requests
// and a receiver goroutine pairs each result with its stamp, recording
// the raw round trip and the result's tallies. It pipelines the way
// serve.Drive does, but keeps what Drive folds away: every raw latency
// sample (Drive buckets them in log2 histograms) and every request's
// tallies (the chain gate needs the ones a cut included).
type conn struct {
	c     *serve.Client
	npred int
	lane  int
	tr    *tracer
	mint  *otrace.Minter // non-nil: every request carries a trace context
	// window, when non-nil, bounds outstanding requests (closed loop);
	// nil pipelines without waiting for results.
	window chan struct{}
	stamps chan stamp

	// Receiver-owned until wait returns.
	lat     []int64  // ns per result, in order
	events  []uint64 // events per result
	tallies []uint64 // npred correct counts per result
	sendErr error
	recvErr error
	wg      sync.WaitGroup
}

// dial connects one client. maxOutstanding bounds the pipeline: 0 for an
// unbounded pipeline of at most maxRequests requests. A non-nil tracer
// traces every request: it records the client spans and sends each
// request with a fresh trace context, so the server records its own.
func dial(addr string, lane, maxOutstanding, maxRequests int, tr *tracer, seed int64) (*conn, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	k := &conn{c: c, npred: len(c.Predictors()), lane: lane, tr: tr}
	if tr != nil {
		k.mint = otrace.NewMinter(uint64(seed)<<20|uint64(lane), 0)
	}
	if maxOutstanding > 0 {
		k.window = make(chan struct{}, maxOutstanding)
		k.stamps = make(chan stamp, maxOutstanding)
	} else {
		// Sized to the number of sends, so stamping never blocks the
		// sender: only TCP backpressure does.
		k.stamps = make(chan stamp, maxRequests)
	}
	return k, nil
}

// run starts the sender and receiver. next fills the next request into
// buf and returns it, or returns nil when the sender should stop.
func (k *conn) run(next func(buf []serve.Event) []serve.Event) {
	k.wg.Add(2)
	go func() {
		defer k.wg.Done()
		k.recvErr = k.receive()
	}()
	go func() {
		defer k.wg.Done()
		var buf []serve.Event
		for {
			req := next(buf)
			if req == nil {
				break
			}
			buf = req
			if err := k.send(req); err != nil {
				k.sendErr = err
				break
			}
		}
		if err := k.c.CloseWrite(); err != nil && k.sendErr == nil {
			k.sendErr = err
		}
	}()
}

// send stamps, writes and flushes one request.
func (k *conn) send(req []serve.Event) error {
	if k.window != nil {
		k.window <- struct{}{}
	}
	var ctx otrace.Context
	if k.mint != nil {
		ctx = k.mint.Next()
	}
	root := k.tr.begin("serve.request", ctx.TraceID, 0, k.lane)
	k.stamps <- stamp{t: now(), sp: root}
	sp := k.tr.begin("serve.send", ctx.TraceID, root.ID, k.lane)
	err := k.c.SendTraced(req, ctx)
	if err == nil {
		err = k.c.Flush()
	}
	k.tr.end(sp)
	return err
}

// receive drains results to EOF.
func (k *conn) receive() error {
	var br serve.BatchResult
	for {
		err := k.c.RecvInto(&br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		t := now()
		var st stamp
		select {
		case st = <-k.stamps:
		default:
			return fmt.Errorf("result %d arrived with no outstanding request", len(k.lat))
		}
		if k.window != nil {
			<-k.window
		}
		k.tr.endAt(st.sp, t)
		k.lat = append(k.lat, t-st.t)
		k.events = append(k.events, br.Events)
		k.tallies = append(k.tallies, br.Correct...)
	}
}

// wait blocks until both halves finish and closes the connection.
func (k *conn) wait() error {
	k.wg.Wait()
	k.c.Close()
	if k.sendErr != nil {
		return fmt.Errorf("send: %w", k.sendErr)
	}
	if k.recvErr != nil {
		return fmt.Errorf("receive: %w", k.recvErr)
	}
	return nil
}

// sum returns the conn's total events and per-predictor tallies over
// its first n results.
func (k *conn) sum(n int) (events uint64, correct []uint64) {
	correct = make([]uint64, k.npred)
	for i := 0; i < n; i++ {
		events += k.events[i]
		for p := range correct {
			correct[p] += k.tallies[i*k.npred+p]
		}
	}
	return events, correct
}
