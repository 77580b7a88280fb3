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
	events    uint64
	buf       []Event         // request-owned event copy the shards consume
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

// shardMsg is one mailbox entry: either a sub-batch of a request or a
// control message (stats snapshot or checkpoint state capture).
type shardMsg struct {
	events []Event
	req    *pending
	snap   chan<- ShardStats       // non-nil = stats request
	state  chan<- shardStateMsg    // non-nil = checkpoint capture request
	plan   *deltaPlan              // with state: delta-mode capture directive
	pstat  chan<- *predstat.Report // non-nil = predictability report request
	pstatN int                     // ranking size for pstat requests
	// ctx and sentNs carry the request's trace identity into the shard:
	// the shard loop records a queue-wait+execute span (sentNs → applied)
	// and a bank-step span when ctx is valid.
	ctx    otrace.Context
	sentNs int64
}

// shardStateMsg is one shard's reply to a checkpoint capture: st for a
// v1 full capture, delta for a delta-mode (chunked) capture.
type shardStateMsg struct {
	st    snapshot.ShardState
	delta *deltaShardState
	err   error
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
	acc     []core.Accuracy
	pcs     core.PCSet
	events  uint64
	mailbox chan shardMsg
	stopped chan struct{}
	scratch []uint64 // per-request correct counts, reused
	spcs    []uint64 // SoA split of one sub-batch, reused
	svals   []uint64
	// met holds this shard's metric cells (single-writer: only this
	// goroutine and the monitor touch them); ewma is the shard-local
	// per-predictor hit-rate EWMA state behind the exported gauges; ring
	// receives slow-batch stage events.
	met       *shardMetrics
	ewma      []float64
	ewmaReady bool
	ring      *obs.Ring
	// pstat, when non-nil, is this shard's predictability tracker,
	// attached to the bank as its run observer (single-writer: only the
	// shard goroutine touches it).
	pstat *predstat.Tracker
	// tracer receives this shard's request spans on lane id (single
	// writer: the shard goroutine).
	tracer *otrace.Recorder
	// dirtyTrack mirrors Config.DeltaCheckpoints: the bank stamps per-PC
	// dirty bits for chunk-granular delta captures, re-enabled whenever
	// the bank is rebuilt (restore).
	dirtyTrack bool
}

func newShard(id int, facs []core.NamedFactory, depth int) *shard {
	sh := &shard{
		id:      id,
		names:   make([]string, len(facs)),
		preds:   make([]core.Predictor, len(facs)),
		acc:     make([]core.Accuracy, len(facs)),
		mailbox: make(chan shardMsg, depth),
		stopped: make(chan struct{}),
		scratch: make([]uint64, len(facs)),
		ewma:    make([]float64, len(facs)),
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
// bank through the batch path, tallying both shard-lifetime accuracy and
// the request's reply. The mailbox is FIFO and sub-batches preserve
// request order, so every predictor still observes each PC's exact value
// subsequence.
func (sh *shard) run() {
	defer close(sh.stopped)
	for msg := range sh.mailbox {
		if msg.snap != nil {
			msg.snap <- sh.snapshot()
			continue
		}
		if msg.state != nil {
			if msg.plan != nil {
				msg.state <- sh.captureDelta(msg.plan)
			} else {
				msg.state <- sh.captureState()
			}
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
		n := len(msg.events)
		if cap(sh.spcs) < n {
			sh.spcs = make([]uint64, n)
			sh.svals = make([]uint64, n)
		}
		pcs, vals := sh.spcs[:n], sh.svals[:n]
		for j := range msg.events {
			sh.pcs.Add(msg.events[j].PC)
			pcs[j] = msg.events[j].PC
			vals[j] = msg.events[j].Value
		}
		counts := sh.scratch
		for i := range counts {
			counts[i] = 0
		}
		t0 := time.Now()
		sh.bank.StepBatchCollect(pcs, vals, counts, nil)
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
		for i := range sh.acc {
			sh.acc[i].Correct += counts[i]
			sh.acc[i].Total += uint64(n)
		}
		sh.events += uint64(n)
		sh.observeBatch(pcs, counts, stepNs)
		msg.req.finish(counts)
	}
}

// observeBatch records one applied sub-batch into the shard's metric
// cells: all plain stores and uncontended atomic adds, nothing
// allocates — the instrumentation rides inside the 0 allocs/op batch
// path. Called on the shard goroutine.
func (sh *shard) observeBatch(pcs []uint64, counts []uint64, stepNs int64) {
	if sh.met == nil {
		return
	}
	n := len(pcs)
	runs := 0
	for j := range pcs {
		if j == 0 || pcs[j] != pcs[j-1] {
			runs++
		}
	}
	m := sh.met
	m.events.Add(uint64(n))
	m.batches.Inc()
	m.batchEvents.Observe(uint64(n))
	m.batchNs.ObserveInt(stepNs)
	m.batchPCRuns.Observe(uint64(runs))
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

// approxEntryBytes is the nominal resident width of one predictor table
// entry (8-byte key, 8-byte value, ~8 bytes of per-entry metadata and
// container overhead). /stats reports entries × this width as the
// approximate state footprint; it is an estimate, not an accounting.
const approxEntryBytes = 24

// snapshot captures the shard's stats; called on the shard goroutine.
func (sh *shard) snapshot() ShardStats {
	st := ShardStats{
		Shard:        sh.id,
		Events:       sh.events,
		UniquePCs:    sh.pcs.Len(),
		Predictors:   make([]PredStat, len(sh.preds)),
		MailboxDepth: len(sh.mailbox),
	}
	if sh.met != nil {
		st.MailboxHighWater = int(sh.met.mailboxHW.Load())
	}
	for i, p := range sh.preds {
		ps := PredStat{
			Name:    p.Name(),
			Correct: sh.acc[i].Correct,
			Total:   sh.acc[i].Total,
		}
		ps.AccuracyPct = sh.acc[i].Percent()
		if sh.ewmaReady {
			ps.HitRateEWMA = sh.ewma[i]
		}
		ps.StaticPCs, ps.TableEntries = p.TableEntries()
		ps.ApproxStateBytes = int64(ps.StaticPCs)*8 + int64(ps.TableEntries)*approxEntryBytes
		st.ApproxStateBytes += ps.ApproxStateBytes
		st.Predictors[i] = ps
	}
	st.ApproxStateBytes += int64(sh.pcs.Len()) * 8 // the unique-PC set itself
	return st
}

// captureState serializes the shard's full predictor state for a
// checkpoint; called on the shard goroutine, so it never races live
// traffic. The mailbox is FIFO, which is what "drain" means here: every
// sub-batch mailed before the capture request has been applied, and none
// mailed after it is visible.
func (sh *shard) captureState() shardStateMsg {
	st := snapshot.ShardState{
		Shard:  sh.id,
		Events: sh.events,
		PCs:    sh.pcs.AppendSorted(make([]uint64, 0, sh.pcs.Len())),
		Preds:  make([]snapshot.PredState, len(sh.preds)),
	}
	for i, p := range sh.preds {
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			return shardStateMsg{err: fmt.Errorf("serve: shard %d: %w", sh.id, err)}
		}
		st.Preds[i] = snapshot.PredState{
			Name:    sh.names[i],
			Correct: sh.acc[i].Correct,
			Total:   sh.acc[i].Total,
			State:   buf.Bytes(),
		}
	}
	return shardStateMsg{st: st}
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
// from snapshot section st. Only legal before the shard goroutine starts.
func (sh *shard) install(st snapshot.ShardState, preds []core.Predictor, pcs core.PCSet) {
	acc := make([]core.Accuracy, len(preds))
	for i := range acc {
		acc[i] = core.Accuracy{Correct: st.Preds[i].Correct, Total: st.Preds[i].Total}
	}
	sh.preds, sh.acc, sh.pcs, sh.events = preds, acc, pcs, st.Events
	sh.bank = core.NewBank(preds...)
	if sh.dirtyTrack {
		sh.bank.SetDirtyTracking(true)
	}
	sh.ewmaReady = false // the EWMA reseeds from live traffic, not history
	if sh.pstat != nil {
		// Predictability estimates describe observed live traffic, which a
		// restore replaces wholesale: restart them from scratch and keep
		// the tracker attached to the rebuilt bank.
		sh.pstat.Reset()
		sh.bank.SetObserver(sh.pstat)
	}
	if sh.met != nil {
		sh.met.uniquePCs.Set(int64(sh.pcs.Len()))
	}
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
	// ApproxStateBytes estimates the resident table footprint as
	// entries × nominal entry width.
	ApproxStateBytes int64 `json:"approx_state_bytes,omitempty"`
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
	// ApproxStateBytes estimates this shard's resident predictor state
	// (all banks plus the unique-PC set), entries × entry width.
	ApproxStateBytes int64 `json:"approx_state_bytes"`
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
	// Full and Deltas split Count by checkpoint kind (delta mode only —
	// v1 checkpoints all count as full).
	Full   uint64 `json:"full"`
	Deltas uint64 `json:"deltas"`
	// ChainDepth is the live chain's delta links past its full root (0
	// right after a full).
	ChainDepth int64 `json:"chain_depth"`
	// ChunksWritten / ChunksDeduped count chunks stored inline versus
	// stored as content-hash references, over the server's lifetime;
	// DedupeRatio is the most recent checkpoint's deduped fraction.
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
	// ApproxStateBytes sums the per-shard resident-state estimates.
	ApproxStateBytes int64 `json:"approx_state_bytes"`
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
