package serve

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/predstat"
	"repro/internal/snapshot"
)

// pending is one in-flight request: the conn handler takes it from the
// pool, shards add their partial tallies, and the last shard to finish
// signals done so the response writer can emit the result in request
// order (and recycle the pending afterwards).
type pending struct {
	events uint64
	// pcs and vals are the request's events bucketed by shard, the
	// request-owned arrays the shards step in place.
	pcs, vals []uint64
	correct   []atomic.Uint64 // per predictor, summed across shards
	remaining atomic.Int32    // shards still working on this request
	done      chan struct{}   // one-slot, signalled once per request
	// Trace state: the request's wire-carried context (zero = untraced),
	// its dispatch timestamp, and a degraded-path marker the dispatcher
	// sets (e.g. "mailbox_saturated"). Written by the conn reader before
	// the request is mailed, read by the conn writer after the done
	// signal — both ordered by the resp channel + done handoff.
	ctx      otrace.Context
	start    int64
	degraded string
}

// init readies a pooled pending for one request of the given part count.
func (p *pending) init(npred, events, parts int) {
	p.events = uint64(events)
	if cap(p.correct) < npred {
		p.correct = make([]atomic.Uint64, npred)
	}
	p.correct = p.correct[:npred]
	for i := range p.correct {
		p.correct[i].Store(0)
	}
	p.remaining.Store(int32(parts))
	if parts == 0 {
		p.done <- struct{}{}
	}
}

// finish merges one shard's partial correct counts; the last part
// completes the request.
func (p *pending) finish(counts []uint64) {
	for i, c := range counts {
		if c != 0 {
			p.correct[i].Add(c)
		}
	}
	if p.remaining.Add(-1) == 0 {
		p.done <- struct{}{}
	}
}

// shardMsg is one mailbox entry: either a sub-batch of a request (its
// slices of the request's pcs and vals) or a control message (stats
// snapshot or checkpoint state capture).
type shardMsg struct {
	pcs, vals []uint64
	req       *pending
	snap      chan<- ShardStats       // non-nil = stats request
	state     chan<- shardStateMsg    // non-nil = checkpoint capture request
	delta     bool                    // with state: capture a delta, not a root
	pstat     chan<- *predstat.Report // non-nil = predictability report request
	pstatN    int                     // ranking size for pstat requests
	// ctx and sentNs carry the request's trace identity into the shard:
	// the shard loop records a queue-wait+execute span (sentNs → applied)
	// and a bank-step span when ctx is valid.
	ctx    otrace.Context
	sentNs int64
}

// shardStateMsg is one shard's reply to a checkpoint capture. For a
// delta, written and skipped count the table entries it carried and the
// clean ones it left out.
type shardStateMsg struct {
	st               snapshot.ShardState
	written, skipped int
	err              error
}

// shard owns one partition of predictor state. All access happens on the
// shard's own goroutine, fed through a bounded FIFO mailbox — the shard
// loop itself takes no locks (dispatchers hold the shared checkpoint cut
// lock while mailing), mirroring internal/engine's batched fan-out. The
// predictor bank executes through core.Bank.StepBatchCollect, the same
// batch path the engine and warm-restart replay use.
type shard struct {
	id      int
	names   []string // registry names, bank order (snapshot identity)
	preds   []core.Predictor
	bank    *core.Bank
	pcs     core.PCSet
	mailbox chan shardMsg
	stopped chan struct{}
	scratch []uint64 // per-request correct counts, reused
	// met holds this shard's metric cells (single-writer: only this
	// goroutine and the monitor touch them). They are the shard's one
	// tally of live traffic: its events and each predictor's hits and
	// events since start. restored and restoredEvents hold what a warm
	// restore loaded (zero after a cold start); stats and checkpoint
	// captures report the two summed. ewma is the shard-local
	// per-predictor hit-rate EWMA state behind the exported gauges; ring
	// receives slow-batch stage events.
	met            *shardMetrics
	restored       []core.Accuracy
	restoredEvents uint64
	ewma           []float64
	ewmaReady      bool
	ring           *obs.Ring
	// pstat, when non-nil, is this shard's predictability tracker,
	// attached to the bank as its run observer (single-writer: only the
	// shard goroutine touches it).
	pstat *predstat.Tracker
	// tracer receives this shard's request spans on lane id (single
	// writer: the shard goroutine).
	tracer *otrace.Recorder
}

func newShard(id int, facs []core.NamedFactory, depth int, met *shardMetrics) *shard {
	sh := &shard{
		id:       id,
		names:    make([]string, len(facs)),
		preds:    make([]core.Predictor, len(facs)),
		mailbox:  make(chan shardMsg, depth),
		stopped:  make(chan struct{}),
		scratch:  make([]uint64, len(facs)),
		met:      met,
		restored: make([]core.Accuracy, len(facs)),
		ewma:     make([]float64, len(facs)),
	}
	for i, f := range facs {
		sh.names[i] = f.Name
		sh.preds[i] = f.New()
	}
	sh.bank = core.NewBank(sh.preds...)
	return sh
}

// run consumes the mailbox until it is closed. One sub-batch applies the
// paper's protocol — predict, compare, update — for every predictor in the
// bank through the batch path, stepping the request's own arrays in
// place, and tallies the request's reply and the shard's metric cells.
// The mailbox is FIFO and sub-batches preserve request order, so every
// predictor still observes each PC's exact value subsequence.
func (sh *shard) run() {
	defer close(sh.stopped)
	for msg := range sh.mailbox {
		if msg.snap != nil {
			msg.snap <- sh.snapshot()
			continue
		}
		if msg.state != nil {
			msg.state <- sh.captureState(msg.delta)
			continue
		}
		if msg.pstat != nil {
			if sh.pstat != nil {
				msg.pstat <- sh.pstat.Report(msg.pstatN)
			} else {
				msg.pstat <- &predstat.Report{}
			}
			continue
		}
		n := len(msg.pcs)
		counts := sh.scratch
		clear(counts)
		t0 := time.Now()
		sh.bank.StepBatchCollect(msg.pcs, msg.vals, counts, nil)
		stepNs := time.Since(t0).Nanoseconds()
		if msg.ctx.Valid() {
			t0u := t0.UnixNano()
			// Shard span: mailed → applied (queue wait + execution);
			// bank span: the core.Bank step alone. Both on this shard's
			// lane, so the writes never contend with other shards.
			sh.tracer.Record(sh.id, otrace.Span{
				TraceID: msg.ctx.TraceID, SpanID: msg.ctx.SpanID + uint64(sh.id)*2 + 2, Parent: msg.ctx.SpanID,
				Stage: otrace.StageShard, Shard: int32(sh.id), Pred: -1,
				Start: msg.sentNs, Dur: t0u + stepNs - msg.sentNs, N: uint64(n),
			})
			sh.tracer.Record(sh.id, otrace.Span{
				TraceID: msg.ctx.TraceID, SpanID: msg.ctx.SpanID + uint64(sh.id)*2 + 3, Parent: msg.ctx.SpanID,
				Stage: otrace.StageBank, Shard: int32(sh.id), Pred: -1,
				Start: t0u, Dur: stepNs, N: uint64(n),
			})
		}
		// The events cell moves before the request completes: a caller
		// that has its reply finds its events counted.
		sh.observeBatch(n, counts, stepNs)
		msg.req.finish(counts)
	}
}

// observeBatch records one applied sub-batch of n events into the
// shard's metric cells and adds its distinct PCs, which the bank's
// grouping already found, to the unique-PC set: all plain stores and
// uncontended atomic adds, nothing allocates once the set holds the
// working set — the instrumentation rides inside the 0 allocs/op batch
// path. Called on the shard goroutine.
func (sh *shard) observeBatch(n int, counts []uint64, stepNs int64) {
	runs := sh.bank.BatchPCs()
	for _, pc := range runs {
		sh.pcs.Add(pc)
	}
	m := sh.met
	m.events.Add(uint64(n))
	m.batches.Inc()
	m.batchEvents.Observe(uint64(n))
	m.batchNs.ObserveInt(stepNs)
	m.batchPCRuns.Observe(uint64(len(runs)))
	m.mailboxDepth.Set(int64(len(sh.mailbox)))
	m.mailboxHW.SetMax(int64(len(sh.mailbox)))
	m.uniquePCs.Set(int64(sh.pcs.Len()))
	for i, c := range counts {
		m.predHits[i].Add(c)
		m.predEvents[i].Add(uint64(n))
		rate := float64(c) / float64(n)
		if !sh.ewmaReady { // first batch seeds the EWMA
			sh.ewma[i] = rate
		} else {
			sh.ewma[i] += ewmaAlpha * (rate - sh.ewma[i])
		}
		m.predEWMA[i].Set(sh.ewma[i])
	}
	sh.ewmaReady = true
	if stepNs > slowBatchNs {
		sh.ring.Add(obs.StageEvent{Kind: evSlowBatch, Shard: sh.id, DurNs: stepNs, N: uint64(n)})
	}
}

// events returns the shard's lifetime event count: the restored base
// plus the events applied since start. Called on the shard goroutine,
// the cells' only writer, so it counts exactly the sub-batches applied
// so far.
func (sh *shard) events() uint64 {
	return sh.restoredEvents + sh.met.events.Load()
}

// tally returns predictor i's lifetime correct/total, the restored base
// plus its hit and event cells; called on the shard goroutine, as events.
func (sh *shard) tally(i int) core.Accuracy {
	return core.Accuracy{
		Correct: sh.restored[i].Correct + sh.met.predHits[i].Load(),
		Total:   sh.restored[i].Total + sh.met.predEvents[i].Load(),
	}
}

// snapshot captures the shard's stats; called on the shard goroutine.
func (sh *shard) snapshot() ShardStats {
	st := ShardStats{
		Shard:            sh.id,
		Events:           sh.events(),
		UniquePCs:        sh.pcs.Len(),
		Predictors:       make([]PredStat, len(sh.preds)),
		MailboxDepth:     len(sh.mailbox),
		MailboxHighWater: int(sh.met.mailboxHW.Load()),
	}
	for i, p := range sh.preds {
		acc := sh.tally(i)
		ps := PredStat{
			Name:        p.Name(),
			Correct:     acc.Correct,
			Total:       acc.Total,
			AccuracyPct: acc.Percent(),
		}
		if sh.ewmaReady {
			ps.HitRateEWMA = sh.ewma[i]
		}
		ps.StaticPCs, ps.TableEntries = p.TableEntries()
		ps.StateBytes = p.StateBytes()
		st.StateBytes = st.StateBytes.Plus(ps.StateBytes)
		st.Predictors[i] = ps
	}
	st.StateBytes = st.StateBytes.Plus(sh.pcs.StateBytes()) // the unique-PC set itself
	return st
}

// captureState serializes the shard's predictor state for a checkpoint:
// every predictor's SaveState for a root, or its SaveDelta for a delta,
// which carries what changed since the previous cut by the change marks
// each predictor keeps and either save clears. It is called on the shard
// goroutine, so it never races live traffic. The mailbox is FIFO, which
// is what "drain" means here: every sub-batch mailed before the capture
// request has been applied, and none mailed after it is visible.
func (sh *shard) captureState(delta bool) shardStateMsg {
	msg := shardStateMsg{st: snapshot.ShardState{
		Shard:  sh.id,
		Events: sh.events(),
		PCs:    sh.pcs.AppendSorted(make([]uint64, 0, sh.pcs.Len())),
		Preds:  make([]snapshot.PredState, len(sh.preds)),
	}}
	for i, p := range sh.preds {
		var buf bytes.Buffer
		var err error
		if delta {
			var n int
			n, err = p.SaveDelta(&buf)
			_, total := p.TableEntries()
			msg.written += n
			msg.skipped += total - n
		} else {
			err = p.SaveState(&buf)
		}
		if err != nil {
			return shardStateMsg{err: fmt.Errorf("serve: shard %d: %w", sh.id, err)}
		}
		acc := sh.tally(i)
		msg.st.Preds[i] = snapshot.PredState{
			Name:    sh.names[i],
			Correct: acc.Correct,
			Total:   acc.Total,
			State:   buf.Bytes(),
		}
	}
	return msg
}

// shardPCs rebuilds shard id's PC set from a snapshot section, checking
// that every PC belongs to that shard under an nshards layout.
func shardPCs(id int, list []uint64, nshards int) (core.PCSet, error) {
	var pcs core.PCSet
	for _, pc := range list {
		if nshards > 1 && ShardOf(pc, nshards) != id {
			return core.PCSet{}, fmt.Errorf("serve: shard %d: snapshot PC %#x belongs to shard %d (snapshot from a different shard layout?)",
				id, pc, ShardOf(pc, nshards))
		}
		pcs.Add(pc)
	}
	return pcs, nil
}

// install replaces the shard's state with predictors and a PC set loaded
// from snapshot section st, whose tallies become the shard's restored
// base. Only legal before the shard goroutine starts, so the metric
// cells are still zero.
func (sh *shard) install(st snapshot.ShardState, preds []core.Predictor, pcs core.PCSet) {
	for i := range sh.restored {
		sh.restored[i] = core.Accuracy{Correct: st.Preds[i].Correct, Total: st.Preds[i].Total}
	}
	sh.preds, sh.pcs, sh.restoredEvents = preds, pcs, st.Events
	sh.bank = core.NewBank(preds...)
	sh.ewmaReady = false // the EWMA reseeds from live traffic, not history
	if sh.pstat != nil {
		// The tracker's own counters describe observed live traffic: restart
		// them, and bind the tracker to the restored predictors, whose FCM
		// tables carry the restored history into the context ceilings.
		sh.pstat.Reset()
		sh.bank.SetObserver(sh.pstat)
	}
	sh.met.uniquePCs.Set(int64(sh.pcs.Len()))
}

// PredStat is one predictor's live tally, per shard or aggregated.
type PredStat struct {
	Name        string  `json:"name"`
	Correct     uint64  `json:"correct"`
	Total       uint64  `json:"total"`
	AccuracyPct float64 `json:"accuracy_pct"`
	// StaticPCs and TableEntries expose the predictor's table occupancy
	// (history depth / context growth) when the predictor reports it.
	StaticPCs    int `json:"static_pcs,omitempty"`
	TableEntries int `json:"table_entries,omitempty"`
	// StateBytes is the predictor's exact byte account: the bytes its
	// live table entries use and every byte its tables hold allocated.
	StateBytes core.MemBytes `json:"state_bytes"`
	// HitRateEWMA is the per-batch hit-rate EWMA — the live
	// predictability signal tracking the paper's per-predictor accuracy
	// tables as the stream drifts (0 until the first batch lands).
	HitRateEWMA float64 `json:"hit_rate_ewma,omitempty"`
}

// ShardStats is one shard's live view.
type ShardStats struct {
	Shard      int        `json:"shard"`
	Events     uint64     `json:"events"`
	UniquePCs  int        `json:"unique_pcs"`
	Predictors []PredStat `json:"predictors"`
	// StateBytes sums this shard's predictor byte accounts and its
	// unique-PC set's.
	StateBytes core.MemBytes `json:"state_bytes"`
	// MailboxDepth is the queued mailbox entries at capture;
	// MailboxHighWater the deepest queue ever observed on this shard.
	MailboxDepth     int `json:"mailbox_depth"`
	MailboxHighWater int `json:"mailbox_highwater"`
}

// ProtoStats aggregates the binary protocol's transport counters.
type ProtoStats struct {
	ConnsOpen         int64  `json:"conns_open"`
	ConnsTotal        uint64 `json:"conns_total"`
	FramesIn          uint64 `json:"frames_in"`
	FramesOut         uint64 `json:"frames_out"`
	BytesIn           uint64 `json:"bytes_in"`
	BytesOut          uint64 `json:"bytes_out"`
	DecodeErrors      uint64 `json:"decode_errors"`
	PipelineHighWater int64  `json:"pipeline_highwater"`
}

// CkptStats aggregates checkpoint activity.
type CkptStats struct {
	Count        uint64 `json:"count"`
	Errors       uint64 `json:"errors"`
	LastBytes    int64  `json:"last_bytes,omitempty"`
	LastUnixNano int64  `json:"last_unixnano,omitempty"`
	// Full and Deltas split Count by checkpoint kind: chain roots and
	// deltas.
	Full   uint64 `json:"full"`
	Deltas uint64 `json:"deltas"`
	// ChainDepth is the live chain's delta links past its full root (0
	// right after a full).
	ChainDepth int64 `json:"chain_depth"`
	// ChunksWritten and ChunksDeduped (names kept from the chunked
	// format) count, over the server's lifetime, the table entries delta
	// checkpoints carried (per-PC records and FCM contexts) and the clean
	// entries they skipped; DedupeRatio is the most recent delta's skipped
	// fraction.
	ChunksWritten uint64  `json:"chunks_written,omitempty"`
	ChunksDeduped uint64  `json:"chunks_deduped,omitempty"`
	DedupeRatio   float64 `json:"dedupe_ratio,omitempty"`
}

// Snapshot is the whole server's aggregated view plus the per-shard
// breakdown. Shards are snapshotted independently (each through its own
// mailbox), so totals are consistent per shard but not cut at a single
// global instant.
type Snapshot struct {
	Shards       int          `json:"shards"`
	UptimeSec    float64      `json:"uptime_sec"`
	Events       uint64       `json:"events"`
	EventsPerSec float64      `json:"events_per_sec"`
	UniquePCs    int          `json:"unique_pcs"`
	Predictors   []PredStat   `json:"predictors"`
	PerShard     []ShardStats `json:"per_shard"`
	// StateBytes sums the per-shard byte accounts.
	StateBytes core.MemBytes `json:"state_bytes"`
	// Protocol and Checkpoints surface the transport and durability
	// counters the /metrics endpoint exports, inlined here so a JSON
	// /stats poll sees the same picture.
	Protocol    ProtoStats `json:"protocol"`
	Checkpoints CkptStats  `json:"checkpoints"`
	// StartedAt is the server process start time (RFC 3339).
	StartedAt string `json:"started_at"`
	// RestoredSnapshotID and RestoredAt identify the checkpoint this
	// server was warm-started from; both empty on a cold start. Together
	// with StartedAt they let a driver distinguish warm-from-snapshot
	// from warm-from-traffic.
	RestoredSnapshotID string `json:"restored_snapshot_id,omitempty"`
	RestoredAt         string `json:"restored_at,omitempty"`
}
