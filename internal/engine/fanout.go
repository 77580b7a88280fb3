package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/sim"
)

// DefaultBatchSize mirrors the simulator's default delivery granularity.
const DefaultBatchSize = sim.DefaultBatchSize

// chanDepth bounds every channel in the fan-out so a fast simulator
// cannot run unboundedly ahead of slow predictor banks (backpressure).
const chanDepth = 4

// bitsRing is the number of correctness bitsets each tracked worker
// rotates through instead of allocating one per batch: at most chanDepth
// sit in the channel, the merger holds one, and one is being filled.
const bitsRing = chanDepth + 2

// batch is one refcounted slice of value events shared read-only by all
// predictor workers and the merger; the last consumer returns it to the
// pool. Every batch carries a trace context minted at fan-out so the
// bank workers and merger can record their stage spans against it.
type batch struct {
	ev     []sim.ValueEvent
	refs   atomic.Int32
	ctx    otrace.Context
	sentNs int64
}

func (b *batch) release(pool *sync.Pool) {
	if b.refs.Add(-1) == 0 {
		pool.Put(b)
	}
}

// workerState is one predictor bank's reusable execution state: the
// single-predictor core.Bank (whose grouping arenas and predictor tables
// persist across benchmark runs via Reset) plus the worker's own SoA and
// bitset scratch. Each bank worker goroutine owns exactly one.
type workerState struct {
	bank    *core.Bank
	idx     int            // predictor index: span lane, Pred label
	busy    *obs.Histogram // vp_engine_worker_busy_ns{pred}
	pcs     []uint64
	vals    []uint64
	bitsArg [][]uint64 // 1-slot reusable argument for StepBatchCollect
	ring    [][]uint64 // tracked workers: rotation of bitsets sent to the merger
	ringIdx int
	scratch []uint64 // untracked workers: private bitset, never leaves the worker
}

// arena holds everything a benchmark run can reuse from the previous one
// executed on the same goroutine: one workerState per standard predictor
// and the shared batch pool. RunSuite gives each suite worker its own
// arena, so back-to-back benchmarks pay no per-run reallocation of
// predictor tables, grouping arenas, event buffers or bitsets.
type arena struct {
	ws   []*workerState
	pool *sync.Pool
}

func newArena() *arena {
	facs := core.StandardFactories()
	a := &arena{
		ws: make([]*workerState, len(facs)),
		pool: &sync.Pool{New: func() any {
			return &batch{}
		}},
	}
	for i, f := range facs {
		ws := &workerState{
			bank:    core.NewBank(f.New()),
			idx:     i,
			busy:    workerBusyHist(f.Name),
			bitsArg: make([][]uint64, 1),
		}
		switch i {
		case analysis.TrackedL, analysis.TrackedS, analysis.TrackedF:
			ws.ring = make([][]uint64, bitsRing)
		}
		a.ws[i] = ws
	}
	return a
}

// reset readies the arena for a fresh benchmark: every predictor's tables
// are cleared in place.
func (a *arena) reset() {
	for _, ws := range a.ws {
		ws.bank.Reset()
	}
}

// RunBenchmark executes one workload with the fan-out topology:
//
//	simulator ──batches──► bank worker (l)    ──bitsets──┐
//	    │     ──batches──► bank worker (s2)   ──bitsets──┤
//	    │     ──batches──► bank worker (fcm1)            ├──► merger
//	    │     ──batches──► bank worker (fcm2)            │
//	    │     ──batches──► bank worker (fcm3) ──bitsets──┤
//	    └─────batches────────────────────────────────────┘
//
// Each bank worker owns one single-predictor core.Bank and steps every
// batch through Bank.StepBatchCollect — the same batch path the serving
// tier and warm-restart replay use — reading per-event correctness back
// from the bank's bitset output to tally per-category accuracy; the three
// tracked banks forward their bitsets so the merger can rebuild the exact
// per-event subset masks and per-static-instruction records of the serial
// path. All channels are FIFO, so every consumer observes events in
// program order and the result is identical to analysis.RunBenchmark.
func RunBenchmark(w *bench.Workload, cfg analysis.Config, batchSize int) (*analysis.BenchResult, error) {
	return newArena().runBenchmark(w, cfg, batchSize)
}

func (a *arena) runBenchmark(w *bench.Workload, cfg analysis.Config, batchSize int) (*analysis.BenchResult, error) {
	cfg = cfg.WithDefaults()
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	a.reset()
	res := analysis.NewBenchResult(w.Name, cfg.Opt)

	ins := make([]chan *batch, len(a.ws))
	var bitsL, bitsS, bitsF chan []uint64
	var wg sync.WaitGroup
	for i, ws := range a.ws {
		ins[i] = make(chan *batch, chanDepth)
		var out chan []uint64
		switch i {
		case analysis.TrackedL:
			out = make(chan []uint64, chanDepth)
			bitsL = out
		case analysis.TrackedS:
			out = make(chan []uint64, chanDepth)
			bitsS = out
		case analysis.TrackedF:
			out = make(chan []uint64, chanDepth)
			bitsF = out
		}
		wg.Add(1)
		go bankWorker(&wg, ws, res.Acc[analysis.PredictorNames[i]], ins[i], out, a.pool)
	}

	mergeIn := make(chan *batch, chanDepth)
	uniq := analysis.NewUniqueTracker(cfg.UniqueValueCap)
	mergeDone := make(chan struct{})
	go merge(res, uniq, mergeIn, bitsL, bitsS, bitsF, a.pool, mergeDone)

	simRes, err := w.Run(bench.RunConfig{
		Opt:       cfg.Opt,
		Scale:     cfg.Scale,
		MaxEvents: cfg.Events,
		BatchSize: batchSize,
		OnValues: func(evs []sim.ValueEvent) {
			metBatches.Inc()
			metEvents.Add(uint64(len(evs)))
			metFill.Observe(uint64(len(evs)))
			// The simulator reuses its batch buffer, so copy into a pooled
			// one owned by the fan-out for the lifetime of the refcount.
			b := a.pool.Get().(*batch)
			b.ev = append(b.ev[:0], evs...)
			b.refs.Store(int32(len(ins) + 1))
			// Capture the context locally: once the last consumer releases
			// the batch to the pool its fields must not be read here.
			ctx, sentNs := otrace.Mint(), time.Now().UnixNano()
			b.ctx, b.sentNs = ctx, sentNs
			for _, in := range ins {
				in <- b
			}
			mergeIn <- b
			// Root span covers copy + fan-out enqueue: its duration is the
			// backpressure the simulator felt delivering this batch.
			tracer.Record(simLane(), otrace.Span{
				TraceID: ctx.TraceID,
				SpanID:  ctx.SpanID,
				Stage:   otrace.StageSim,
				Shard:   -1,
				Pred:    -1,
				Start:   sentNs,
				Dur:     time.Now().UnixNano() - sentNs,
				N:       uint64(len(evs)),
			})
		},
	})
	for _, in := range ins {
		close(in)
	}
	close(mergeIn)
	wg.Wait()
	<-mergeDone
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", w.Name, err)
	}

	res.Instructions = simRes.Instructions
	res.Events = simRes.Events
	res.Halted = simRes.Halted
	res.DynPerCat = simRes.DynPerCat
	uniq.FillStatic(res)
	return res, nil
}

// bankWorker drives one predictor bank over the batch stream through the
// shared batch path, tallying its accuracy in place (each worker owns its
// CatAccuracy, so tallies need no locks). Tracked banks forward one
// correctness bitset per batch on out, drawn from a fixed ring: the
// bounded out channel plus the merger's strictly sequential consumption
// guarantee at most bitsRing bitsets are live at once, so the ring is
// reused without synchronization or allocation.
func bankWorker(wg *sync.WaitGroup, ws *workerState, acc *analysis.CatAccuracy,
	in <-chan *batch, out chan<- []uint64, pool *sync.Pool) {
	defer wg.Done()
	for b := range in {
		n := len(b.ev)
		if cap(ws.pcs) < n {
			ws.pcs = make([]uint64, n)
			ws.vals = make([]uint64, n)
		}
		pcs, vals := ws.pcs[:n], ws.vals[:n]
		for j := range b.ev {
			pcs[j] = b.ev[j].PC
			vals[j] = b.ev[j].Value
		}
		nw := (n + 63) / 64
		var bits []uint64
		if out != nil {
			bits = ws.ring[ws.ringIdx]
			if cap(bits) < nw {
				bits = make([]uint64, nw)
				ws.ring[ws.ringIdx] = bits
			}
			ws.ringIdx = (ws.ringIdx + 1) % bitsRing
		} else {
			if cap(ws.scratch) < nw {
				ws.scratch = make([]uint64, nw)
			}
			bits = ws.scratch
		}
		bits = bits[:nw]
		ws.bitsArg[0] = bits
		t0 := time.Now()
		ws.bank.StepBatchCollect(pcs, vals, nil, ws.bitsArg)
		stepNs := time.Since(t0).Nanoseconds()
		ws.busy.ObserveInt(stepNs)
		tracer.Record(ws.idx, otrace.Span{
			TraceID: b.ctx.TraceID,
			SpanID:  b.ctx.SpanID + 2 + uint64(ws.idx),
			Parent:  b.ctx.SpanID,
			Stage:   otrace.StageBank,
			Shard:   -1,
			Pred:    int32(ws.idx),
			Start:   t0.UnixNano(),
			Dur:     stepNs,
			N:       uint64(n),
		})
		for j := range b.ev {
			correct := bits[j>>6]&(1<<(uint(j)&63)) != 0
			acc.Overall.Observe(correct)
			acc.PerCat[b.ev[j].Cat].Observe(correct)
		}
		if out != nil {
			out <- bits
		}
		b.release(pool)
	}
	if out != nil {
		close(out)
	}
}

// merge joins each batch with the tracked banks' correctness bitsets
// (aligned by FIFO order: the k-th batch pairs with the k-th bitset of
// every tracked bank) and rebuilds the serial path's per-event subset
// masks, per-static-instruction records and unique-value sets through
// the same analysis collectors the serial path uses.
func merge(res *analysis.BenchResult, uniq *analysis.UniqueTracker,
	in <-chan *batch, bitsL, bitsS, bitsF <-chan []uint64, pool *sync.Pool, done chan<- struct{}) {
	defer close(done)
	for b := range in {
		lb, sb, fb := <-bitsL, <-bitsS, <-bitsF
		t0 := time.Now()
		for j := range b.ev {
			ev := &b.ev[j]
			bit := uint64(1) << (uint(j) & 63)
			var mask uint64
			if lb[j>>6]&bit != 0 {
				mask |= 1
			}
			if sb[j>>6]&bit != 0 {
				mask |= 2
			}
			if fb[j>>6]&bit != 0 {
				mask |= 4
			}
			res.RecordEvent(ev.Cat, ev.PC, mask)
			uniq.Observe(ev.PC, ev.Value)
		}
		tracer.Record(mergeLane(), otrace.Span{
			TraceID: b.ctx.TraceID,
			SpanID:  b.ctx.SpanID + 1,
			Parent:  b.ctx.SpanID,
			Stage:   otrace.StageMerge,
			Shard:   -1,
			Pred:    -1,
			Start:   t0.UnixNano(),
			Dur:     time.Since(t0).Nanoseconds(),
			N:       uint64(len(b.ev)),
		})
		b.release(pool)
	}
}
