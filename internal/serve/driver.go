package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/trace"
)

// DefaultDriveBatch is the events-per-request batch size the driver uses
// when DriveConfig.BatchSize is zero.
const DefaultDriveBatch = 2048

// DriveConfig parameterizes a load-generation run against a server.
type DriveConfig struct {
	// Addr is the server's binary-protocol address.
	Addr string
	// Clients is the number of concurrent connections (0 = 1). The stream
	// is partitioned across clients by ShardOf(pc, Clients), so every
	// PC's subsequence stays on one ordered connection and, since every
	// predictor's state is per-PC, the summed accuracy is identical to
	// offline replay at any concurrency.
	Clients int
	// BatchSize is events per request frame (0 = DefaultDriveBatch).
	BatchSize int
	// TraceSample, when > 0, sends every request with a minted trace
	// context (so the server's tail sampler sees all of them) and
	// head-samples one in TraceSample — those are retained server-side
	// regardless of latency. 1 retains every request; 0 drives untraced.
	TraceSample int
}

// SlowTrace identifies one of the slowest traced requests of a drive:
// the trace id to look up in the server's GET /trace, and the
// client-observed round-trip time.
type SlowTrace struct {
	TraceID string `json:"trace_id"`
	DurNs   int64  `json:"dur_ns"`
}

// DriveResult aggregates a whole run.
type DriveResult struct {
	Predictors []string
	Events     uint64
	Correct    []uint64 // per predictor, summed across clients
	Elapsed    time.Duration
	// ServerPriorEvents is the largest lifetime event count any client
	// connection observed in its hello. Non-zero means the server's
	// tables were already trained before this drive, so the tallies are
	// not comparable to an offline replay from cold tables.
	ServerPriorEvents uint64
	// Latency is the request round-trip latency distribution in ns
	// (batch handed to the sender → matching result received), merged
	// across every client connection. Quantile/Mean/Max summarize it.
	Latency obs.HistSnap
	// SlowTraces are the slowest traced requests of the run (client-side
	// round-trip), slowest first — the ids to paste into the server's
	// GET /trace. Empty when TraceSample was 0.
	SlowTraces []SlowTrace
}

// AccuracyPct returns predictor i's accuracy over the driven stream.
func (r *DriveResult) AccuracyPct(i int) float64 {
	if r.Events == 0 {
		return 0
	}
	return 100 * float64(r.Correct[i]) / float64(r.Events)
}

// EventsPerSec returns the end-to-end drive throughput.
func (r *DriveResult) EventsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Events) / r.Elapsed.Seconds()
}

// clientRunner owns one connection: a sender goroutine streams batches
// from work, then half-closes; the receiver (run's own goroutine) drains
// results until EOF. Spent batch buffers flow back to the producer over
// free — Send copies the events onto the wire, so a buffer is reusable
// the moment Send returns — which makes the drive loop's buffer
// management allocation-free in steady state.
//
// Latency is measured per request: the sender records a timestamp just
// before each Send, and — responses being FIFO — the receiver pairs the
// oldest outstanding timestamp with each result. The timestamps ride a
// bounded channel; every stamp is pushed before its frame is sent, so the
// receiver's pop can never run ahead of the sender.
type clientRunner struct {
	c       *Client
	work    chan []Event
	free    chan []Event
	lat     *obs.Histogram
	times   chan sendStamp
	minter  *otrace.Minter // nil = drive untraced
	slow    [slowTrackK]slowSlot
	sum     BatchResult
	sent    uint64
	sendErr error
	recvErr error
	wg      sync.WaitGroup
}

// sendStamp pairs a request's send timestamp with its trace id (0 when
// untraced); responses are FIFO, so the receiver pops stamps in order.
type sendStamp struct {
	t0 int64
	id uint64
}

// slowTrackK bounds the per-runner slowest-request tracking — constant
// memory however long the drive runs.
const slowTrackK = 16

type slowSlot struct {
	id uint64
	ns int64
}

// noteSlow keeps the K slowest traced requests; called only from the
// receiver goroutine, so no locking.
func (r *clientRunner) noteSlow(id uint64, ns int64) {
	minI := 0
	for i := 1; i < slowTrackK; i++ {
		if r.slow[i].ns < r.slow[minI].ns {
			minI = i
		}
	}
	if ns > r.slow[minI].ns {
		r.slow[minI] = slowSlot{id: id, ns: ns}
	}
}

func startRunner(addr string, lat *obs.Histogram, minter *otrace.Minter) (*clientRunner, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	r := &clientRunner{
		c:    c,
		work: make(chan []Event, 8),
		// One slot per in-flight work entry plus the producer's and the
		// sender's own, so recycling never blocks.
		free: make(chan []Event, 10),
		lat:  lat,
		// Far deeper than any realistic in-flight frame count; the sender
		// flushes before blocking on a full queue, so even degenerate
		// tiny-batch runs keep making progress.
		times:  make(chan sendStamp, 1024),
		minter: minter,
	}
	r.wg.Add(2)
	go func() { // sender
		defer r.wg.Done()
		for b := range r.work {
			r.sent += uint64(len(b))
			if r.sendErr == nil {
				r.stampAndSend(b)
			}
			select {
			case r.free <- b[:0]:
			default:
			}
		}
		if err := r.c.CloseWrite(); err != nil && r.sendErr == nil {
			r.sendErr = err
		}
	}()
	go func() { // receiver
		defer r.wg.Done()
		r.recvErr = r.drainTimed()
	}()
	return r, nil
}

// stampAndSend records the send timestamp, writes the batch and flushes
// when the producer has nothing further queued — so the measured latency
// is wire-and-server time, not client-side buffering.
func (r *clientRunner) stampAndSend(b []Event) {
	var ctx otrace.Context
	if r.minter != nil {
		ctx = r.minter.Next()
	}
	st := sendStamp{t0: time.Now().UnixNano(), id: ctx.TraceID}
	select {
	case r.times <- st:
	default:
		// Timestamp queue full: that many frames are unflushed or
		// unanswered. Force them onto the wire — the server keeps
		// answering, the receiver keeps popping — then wait for a slot.
		if err := r.c.Flush(); err != nil {
			r.sendErr = err
			return
		}
		r.times <- st
	}
	if err := r.c.SendTraced(b, ctx); err != nil {
		r.sendErr = err
		return
	}
	if len(r.work) == 0 {
		if err := r.c.Flush(); err != nil {
			r.sendErr = err
		}
	}
}

// drainTimed receives until EOF, summing results through one reused
// BatchResult and pairing each with its send timestamp.
func (r *clientRunner) drainTimed() error {
	var br BatchResult
	for {
		err := r.c.RecvInto(&br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case st := <-r.times:
			ns := time.Now().UnixNano() - st.t0
			r.lat.ObserveInt(ns)
			if st.id != 0 {
				r.noteSlow(st.id, ns)
			}
		default:
			// No stamp for this result — the sender hit an error after
			// stamping a different frame; skip the sample.
		}
		r.sum.Events += br.Events
		if r.sum.Correct == nil {
			r.sum.Correct = make([]uint64, len(r.c.preds))
		}
		for i, v := range br.Correct {
			r.sum.Correct[i] += v
		}
	}
}

func (r *clientRunner) finish() error {
	r.wg.Wait()
	r.c.Close()
	if r.sendErr != nil {
		return r.sendErr
	}
	if r.recvErr != nil {
		return r.recvErr
	}
	if r.sum.Events != r.sent {
		return fmt.Errorf("serve: drive: sent %d events but server tallied %d", r.sent, r.sum.Events)
	}
	return nil
}

// Drive streams events from next against the server. next is called until
// it returns false; it fills the driver's per-client batches, so the
// source can be a trace file, a live simulation or a generator.
func Drive(cfg DriveConfig, next func() (Event, bool)) (*DriveResult, error) {
	clients := cfg.Clients
	if clients <= 0 {
		clients = 1
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultDriveBatch
	}
	start := time.Now()
	lat := obs.NewHistogram()
	runners := make([]*clientRunner, clients)
	for i := range runners {
		var minter *otrace.Minter
		if cfg.TraceSample > 0 {
			// Per-runner minter (the sender goroutine owns it), seeded so
			// ids never collide across runners of the same drive.
			minter = otrace.NewMinter(uint64(start.UnixNano())+uint64(i)<<32, cfg.TraceSample)
		}
		r, err := startRunner(cfg.Addr, lat, minter)
		if err != nil {
			for _, prev := range runners[:i] {
				close(prev.work)
				prev.finish()
			}
			return nil, err
		}
		runners[i] = r
	}
	preds := runners[0].c.Predictors()

	bufs := make([][]Event, clients)
	for i := range bufs {
		bufs[i] = make([]Event, 0, batch)
	}
	for {
		ev, ok := next()
		if !ok {
			break
		}
		cl := 0
		if clients > 1 {
			cl = ShardOf(ev.PC, clients)
		}
		bufs[cl] = append(bufs[cl], ev)
		if len(bufs[cl]) == batch {
			runners[cl].work <- bufs[cl]
			select {
			case bufs[cl] = <-runners[cl].free: // recycled, cap == batch
			default:
				bufs[cl] = make([]Event, 0, batch)
			}
		}
	}
	for i, b := range bufs {
		if len(b) > 0 {
			runners[i].work <- b
		}
	}

	res := &DriveResult{Predictors: preds, Correct: make([]uint64, len(preds))}
	var firstErr error
	for _, r := range runners {
		close(r.work)
		if err := r.finish(); err != nil && firstErr == nil {
			firstErr = err
		}
		res.Events += r.sum.Events
		res.ServerPriorEvents = max(res.ServerPriorEvents, r.c.PriorEvents())
		for i, v := range r.sum.Correct {
			res.Correct[i] += v
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Elapsed = time.Since(start)
	res.Latency = lat.Snapshot()
	if cfg.TraceSample > 0 {
		var all []slowSlot
		for _, r := range runners {
			for _, sl := range r.slow {
				if sl.id != 0 {
					all = append(all, sl)
				}
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ns > all[j].ns })
		if len(all) > slowTrackK {
			all = all[:slowTrackK]
		}
		for _, sl := range all {
			res.SlowTraces = append(res.SlowTraces, SlowTrace{TraceID: otrace.Hex16(sl.id), DurNs: sl.ns})
		}
	}
	return res, nil
}

// LatencySummary formats the run's round-trip latency distribution as
// "p50=… p90=… p99=… max=…" (empty string when nothing was measured) —
// the end-of-run line vpserve drivers and `vptrace drive` print.
func (r *DriveResult) LatencySummary() string {
	if r.Latency.Count == 0 {
		return ""
	}
	return fmt.Sprintf("p50=%s p90=%s p99=%s max=%s",
		time.Duration(r.Latency.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(r.Latency.Quantile(0.90)).Round(time.Microsecond),
		time.Duration(r.Latency.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(r.Latency.Max).Round(time.Microsecond))
}

// DriveEvents drives an in-memory event stream.
func DriveEvents(evs []Event, cfg DriveConfig) (*DriveResult, error) {
	i := 0
	return Drive(cfg, func() (Event, bool) {
		if i >= len(evs) {
			return Event{}, false
		}
		ev := evs[i]
		i++
		return ev, true
	})
}

// DriveTrace replays a captured value trace through the server using the
// batched trace read path.
func DriveTrace(tr *trace.Reader, cfg DriveConfig) (*DriveResult, error) {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultDriveBatch
	}
	var pendingEvs []Event
	var done bool
	var readErr error
	buf := make([]trace.Event, batch)
	next := func() (Event, bool) {
		for len(pendingEvs) == 0 {
			if done || readErr != nil {
				return Event{}, false
			}
			n, err := tr.ReadBatch(buf)
			switch {
			case errors.Is(err, io.EOF):
				done = true
			case err != nil:
				readErr = err
			}
			for _, te := range buf[:n] {
				pendingEvs = append(pendingEvs, Event{PC: te.PC, Value: te.Value})
			}
			if n < len(buf) {
				done = true
			}
		}
		ev := pendingEvs[0]
		pendingEvs = pendingEvs[1:]
		return ev, true
	}
	res, err := Drive(cfg, next)
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	return res, nil
}
