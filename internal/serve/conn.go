package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"

	otrace "repro/internal/obs/trace"
)

// respQueueDepth bounds pipelining per connection: at most this many
// requests may be in flight (dispatched to shards but not yet answered)
// before the connection's reader blocks.
const respQueueDepth = 32

// handleConn speaks the binary protocol on one connection. The reader
// (this goroutine) decodes each events frame into pcs/vals arrays,
// buckets them stably by shard and dispatches the sub-batches; a writer
// goroutine emits results in request order as shards complete them, so
// independent requests pipeline while responses stay FIFO.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)
	hello := appendHello(nil, len(s.shards), s.lifetimeEvents(), s.predNames)
	if err := writeFrame(bw, hello); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	s.metrics.framesOut.Inc()
	s.metrics.bytesOut.Add(uint64(4 + len(hello)))

	resp := make(chan *pending, respQueueDepth)
	writerDone := make(chan struct{})
	ctl := s.controlLane()
	go func() {
		defer close(writerDone)
		var buf []byte
		var werr error
		correct := make([]uint64, len(s.predNames))
		// On a write error keep draining resp (without writing) so the
		// reader never blocks on a full response queue. Every pending is
		// recycled here: once its done signal has been consumed, no shard
		// references its buffers anymore.
		//
		// The writer flushes before every wait — on a result that is not
		// done yet, or on an empty queue — so a finished result never
		// sits in the buffer behind a slower one, while results that are
		// already done coalesce into one write.
		for p := range resp {
			select {
			case <-p.done:
			default:
				if werr == nil {
					werr = bw.Flush()
				}
				<-p.done
			}
			// The request is complete: observe whole-request latency (the
			// adaptive slow threshold's input) and, for traced requests,
			// record the root span and make the tail-sampling decision.
			// Every shard span happened-before the done signal, so a
			// promotion here collects a complete trace.
			durNs := time.Now().UnixNano() - p.start
			s.metrics.requestNs.ObserveInt(durNs)
			if p.ctx.Valid() {
				s.tracer.Record(ctl, otrace.Span{
					TraceID: p.ctx.TraceID, SpanID: p.ctx.SpanID,
					Stage: otrace.StageConn, Shard: -1, Pred: -1,
					Start: p.start, Dur: durNs, N: p.events,
				})
				if reason := s.tracer.RetainReason(p.ctx, durNs, p.degraded); reason != "" {
					s.tracer.Promote(p.ctx, p.start, durNs, p.events, reason)
				}
			}
			if werr == nil {
				for i := range p.correct {
					correct[i] = p.correct[i].Load()
				}
				buf = appendResult(buf[:0], p.events, correct)
				s.metrics.framesOut.Inc()
				s.metrics.bytesOut.Add(uint64(4 + len(buf)))
				if werr = writeFrame(bw, buf); werr == nil && len(resp) == 0 {
					werr = bw.Flush()
				}
			}
			putPending(p)
		}
		if werr == nil {
			bw.Flush()
		}
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	var frame []byte
	var pcs, vals []uint64 // conn-local decode target, reused every frame
	ends := make([]int, len(s.shards))
	var readErr error
	for {
		var err error
		frame, err = readFrame(br, frame)
		if err != nil {
			readErr = err
			break
		}
		s.metrics.framesIn.Inc()
		s.metrics.bytesIn.Add(uint64(4 + len(frame)))
		var tctx otrace.Context
		tctx, pcs, vals, err = decodeRequest(frame, pcs[:0], vals[:0])
		if err != nil {
			s.metrics.decodeErrors.Inc()
			// A traced frame whose body failed to decode is a degraded
			// path: retain a (span-less) trace so the client's id lookup
			// finds what happened to it.
			if tctx.Valid() {
				s.tracer.Promote(tctx, time.Now().UnixNano(), 0, 0, "decode_error")
			}
			readErr = err
			break
		}
		p := s.dispatch(pcs, vals, ends, tctx)
		resp <- p
		s.metrics.pipelineHW.SetMax(int64(len(resp)))
	}
	close(resp)
	<-writerDone
	if readErr != nil && !errors.Is(readErr, io.EOF) {
		// Best-effort error report; the connection is going down anyway.
		writeFrame(bw, appendError(nil, readErr.Error()))
		bw.Flush()
	}
}

// dispatch buckets one request's events by shard into the arrays of a
// pooled pending (the one copy between decode and the banks) and mails
// each non-empty sub-batch. ends is caller-owned scratch, one slot per
// shard; pcs and vals are the caller's decode scratch and may be reused
// as soon as dispatch returns — the shards only ever see the pending's
// arrays, which the response writer recycles when the request
// completes.
//
// The shared cut lock is held across the sends so a concurrent
// checkpoint's capture markers can never land between two shards of the
// same request — the cut is request-atomic.
//
// tctx is the request's wire-carried trace context (zero = untraced).
// For traced requests dispatch records an enqueue span (bucketing +
// cut-lock acquisition + mailbox sends — where backpressure and
// checkpoint interference surface) and marks the request degraded when
// it lands on an already-full mailbox.
func (s *Server) dispatch(pcs, vals []uint64, ends []int, tctx otrace.Context) *pending {
	startNs := time.Now().UnixNano()
	s.metrics.events.Add(uint64(len(pcs)))
	p := getPending()
	p.ctx, p.start, p.degraded = tctx, startNs, ""
	p.pcs, p.vals = bucketByShard(pcs, vals, p.pcs, p.vals, ends)
	parts, lo := 0, 0
	for _, hi := range ends {
		if hi > lo {
			parts++
		}
		lo = hi
	}
	p.init(len(s.predNames), len(pcs), parts)
	s.cutMu.RLock()
	defer s.cutMu.RUnlock()
	lo = 0
	for i, hi := range ends {
		if hi > lo {
			sh := s.shards[i]
			if tctx.Valid() && len(sh.mailbox) == cap(sh.mailbox) {
				p.degraded = "mailbox_saturated"
			}
			sh.mailbox <- shardMsg{pcs: p.pcs[lo:hi], vals: p.vals[lo:hi], req: p, ctx: tctx, sentNs: startNs}
		}
		lo = hi
	}
	s.recordEnqueue(tctx, startNs, len(pcs))
	return p
}

// recordEnqueue closes a traced request's dispatch span: shard
// bucketing, cut-lock acquisition and every mailbox send.
func (s *Server) recordEnqueue(tctx otrace.Context, startNs int64, events int) {
	if !tctx.Valid() {
		return
	}
	s.tracer.Record(s.controlLane(), otrace.Span{
		TraceID: tctx.TraceID, SpanID: tctx.SpanID + 1, Parent: tctx.SpanID,
		Stage: otrace.StageEnqueue, Shard: -1, Pred: -1,
		Start: startNs, Dur: time.Now().UnixNano() - startNs, N: uint64(events),
	})
}
