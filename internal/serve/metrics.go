package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/predstat"
)

// Stage-event kinds the server records into its obs ring; dumped by
// GET /events.
const (
	evCheckpointCut     = "checkpoint_cut"
	evCheckpointWritten = "checkpoint_written"
	evCheckpointError   = "checkpoint_error"
	evRestore           = "restore"
	evDrain             = "shutdown_drain"
	evSlowBatch         = "slow_batch"
)

// slowBatchNs is the shard-batch duration past which the shard loop
// records a slow_batch stage event (the ring is for anomalies, not the
// steady state).
const slowBatchNs = int64(50 * time.Millisecond)

// ewmaAlpha weights each batch's hit rate into the per-predictor
// exponentially-weighted moving average — the online predictability
// signal exported per (shard, predictor). ~0.02 ≈ a ~50-batch horizon.
const ewmaAlpha = 0.02

// shardMetrics is one shard's metric cells. Every field is written by
// exactly one goroutine (the shard loop, or the monitor for the
// high-water mark), so hot-path updates are uncontended stores on
// shard-private cache lines; scrapes aggregate across shards.
type shardMetrics struct {
	events       *obs.Counter   // vp_shard_events_total{shard}
	batches      *obs.Counter   // vp_shard_batches_total{shard}
	batchEvents  *obs.Histogram // vp_batch_events (merged across shards)
	batchNs      *obs.Histogram // vp_batch_ns (merged across shards)
	batchPCRuns  *obs.Histogram // vp_batch_pc_runs (merged across shards)
	mailboxDepth *obs.Gauge     // vp_shard_mailbox_depth{shard}
	mailboxHW    *obs.Gauge     // vp_shard_mailbox_highwater{shard}
	uniquePCs    *obs.Gauge     // vp_shard_unique_pcs{shard}
	predHits     []*obs.Counter // vp_pred_hits_total{shard,pred}
	predEvents   []*obs.Counter // vp_pred_events_total{shard,pred}
	predEWMA     []*obs.FloatGauge
}

// serverMetrics owns the server's registry and every instrument the
// serving layers write. All series are registered up front, at
// construction, so the hot path never touches the registry lock and a
// scrape always exposes the full schema (zero-valued until traffic).
type serverMetrics struct {
	reg *obs.Registry

	events     *obs.Counter // vp_events_total
	connsOpen  *obs.Gauge   // vp_conn_open
	connsTotal *obs.Counter // vp_conn_accepted_total

	framesIn     *obs.Counter // vp_conn_frames_in_total
	framesOut    *obs.Counter // vp_conn_frames_out_total
	bytesIn      *obs.Counter // vp_conn_bytes_in_total
	bytesOut     *obs.Counter // vp_conn_bytes_out_total
	decodeErrors *obs.Counter // vp_conn_decode_errors_total
	pipelineHW   *obs.Gauge   // vp_conn_pipeline_highwater

	// requestNs is whole-request latency (events frame decoded → result
	// ready): the distribution the adaptive trace slow threshold tracks.
	// Multi-writer (every conn writer observes into it); obs.Histogram is
	// atomic, so that is safe and allocation-free.
	requestNs *obs.Histogram // vp_request_ns

	ckptTotal         map[string]*obs.Counter // vp_checkpoint_total{kind}
	ckptErrors        *obs.Counter            // vp_checkpoint_errors_total
	ckptCutNs         *obs.Histogram          // vp_checkpoint_cut_ns (markers mailed -> all shard states gathered)
	ckptEncodeNs      *obs.Histogram          // vp_checkpoint_encode_ns (atomic file write)
	ckptBytes         map[string]*obs.Counter // vp_checkpoint_bytes_total{kind}
	ckptLastBytes     *obs.Gauge              // vp_checkpoint_last_bytes
	ckptLastUnix      *obs.Gauge              // vp_checkpoint_last_unixnano
	ckptChunksWritten *obs.Counter            // vp_checkpoint_chunks_written_total
	ckptChunksDeduped *obs.Counter            // vp_checkpoint_chunks_deduped_total
	ckptDedupRatio    *obs.FloatGauge         // vp_checkpoint_dedupe_ratio
	ckptChainDepth    *obs.Gauge              // vp_checkpoint_chain_depth
	restoreTotal      *obs.Counter            // vp_restore_total
	restoredEvents    *obs.Gauge              // vp_restored_events

	// Predictability families, rebuilt from the shard trackers by an
	// OnScrape hook (scrape-derived, not hot-path-written).
	pcEntropy      *obs.Histogram        // vp_pc_entropy_bits (millibits)
	seqclassEvents map[string]*obs.Gauge // vp_seqclass_events{class}
	predCeilingGap []*obs.FloatGauge     // vp_pred_ceiling_gap{pred}

	shards []*shardMetrics
}

func newServerMetrics(start time.Time, nshards int, predNames []string) *serverMetrics {
	r := obs.NewRegistry()
	// Runtime telemetry (vp_go_*) rides the same scrape so /metrics shows
	// GC pauses and scheduler latency next to the request-path families.
	obs.RegisterGoRuntime(r)
	m := &serverMetrics{
		reg:        r,
		events:     r.Counter("vp_events_total", "events dispatched to shards over the server's lifetime"),
		connsOpen:  r.Gauge("vp_conn_open", "currently open binary-protocol connections"),
		connsTotal: r.Counter("vp_conn_accepted_total", "binary-protocol connections accepted"),

		framesIn:     r.Counter("vp_conn_frames_in_total", "protocol frames received"),
		framesOut:    r.Counter("vp_conn_frames_out_total", "protocol frames sent"),
		bytesIn:      r.Counter("vp_conn_bytes_in_total", "protocol bytes received (incl. length prefixes)"),
		bytesOut:     r.Counter("vp_conn_bytes_out_total", "protocol bytes sent (incl. length prefixes)"),
		decodeErrors: r.Counter("vp_conn_decode_errors_total", "frames rejected as malformed"),
		pipelineHW:   r.Gauge("vp_conn_pipeline_highwater", "deepest per-connection response pipeline observed"),

		requestNs: r.Histogram("vp_request_ns", "ns per request, frame decoded to result ready (all shards joined)"),

		ckptTotal: map[string]*obs.Counter{
			"full":  r.Counter("vp_checkpoint_total", "checkpoints written", "kind", "full"),
			"delta": r.Counter("vp_checkpoint_total", "checkpoints written", "kind", "delta"),
		},
		ckptErrors:   r.Counter("vp_checkpoint_errors_total", "checkpoint attempts that failed"),
		ckptCutNs:    r.Histogram("vp_checkpoint_cut_ns", "ns from mailing cut markers to gathering every shard's state"),
		ckptEncodeNs: r.Histogram("vp_checkpoint_encode_ns", "ns encoding and atomically writing a checkpoint file"),
		ckptBytes: map[string]*obs.Counter{
			"full":  r.Counter("vp_checkpoint_bytes_total", "checkpoint bytes written", "kind", "full"),
			"delta": r.Counter("vp_checkpoint_bytes_total", "checkpoint bytes written", "kind", "delta"),
		},
		ckptLastBytes: r.Gauge("vp_checkpoint_last_bytes", "size of the most recent checkpoint"),
		ckptLastUnix:  r.Gauge("vp_checkpoint_last_unixnano", "wall time of the most recent checkpoint"),
		ckptChunksWritten: r.Counter("vp_checkpoint_chunks_written_total",
			"table entries (per-PC records, FCM contexts) delta checkpoints carried"),
		ckptChunksDeduped: r.Counter("vp_checkpoint_chunks_deduped_total",
			"clean table entries delta checkpoints skipped"),
		ckptDedupRatio: r.FloatGauge("vp_checkpoint_dedupe_ratio",
			"fraction of table entries the most recent delta checkpoint skipped as clean"),
		ckptChainDepth: r.Gauge("vp_checkpoint_chain_depth",
			"delta links past the live chain's full root (0 right after a full)"),
		restoreTotal:   r.Counter("vp_restore_total", "warm restores performed"),
		restoredEvents: r.Gauge("vp_restored_events", "events of prior learning in the restored snapshot"),

		shards: make([]*shardMetrics, nshards),
	}
	r.GaugeFunc("vp_uptime_seconds", "seconds since the server was built", func() float64 {
		return time.Since(start).Seconds()
	})
	m.pcEntropy = r.Histogram("vp_pc_entropy_bits",
		"per-PC conditional entropy in millibits/value, exact from the top-order counts of the bank's highest-order FCM, rebuilt each scrape")
	m.seqclassEvents = make(map[string]*obs.Gauge, len(predstat.ClassLabels))
	for _, cls := range predstat.ClassLabels {
		m.seqclassEvents[cls] = r.Gauge("vp_seqclass_events",
			"events at PCs whose trailing window carries this sequence class", "class", cls)
	}
	m.predCeilingGap = make([]*obs.FloatGauge, len(predNames))
	for pi, name := range predNames {
		m.predCeilingGap[pi] = r.FloatGauge("vp_pred_ceiling_gap",
			"events-weighted gap between each predictor's class ceiling and its realized hit rate", "pred", name)
	}
	for i := range m.shards {
		sid := strconv.Itoa(i)
		sm := &shardMetrics{
			events:  r.Counter("vp_shard_events_total", "events applied, per shard", "shard", sid),
			batches: r.Counter("vp_shard_batches_total", "request sub-batches applied, per shard", "shard", sid),
			// One histogram cell per shard under a shared name: each stays
			// single-writer on the hot path, scrapes merge them.
			batchEvents:  r.Histogram("vp_batch_events", "events per applied shard sub-batch"),
			batchNs:      r.Histogram("vp_batch_ns", "ns per shard predict+update batch (core.Bank step)"),
			batchPCRuns:  r.Histogram("vp_batch_pc_runs", "same-PC runs the bank grouped each applied sub-batch into (its distinct PCs)"),
			mailboxDepth: r.Gauge("vp_shard_mailbox_depth", "queued mailbox entries, per shard", "shard", sid),
			mailboxHW:    r.Gauge("vp_shard_mailbox_highwater", "deepest mailbox observed, per shard", "shard", sid),
			uniquePCs:    r.Gauge("vp_shard_unique_pcs", "distinct PCs seen, per shard", "shard", sid),
			predHits:     make([]*obs.Counter, len(predNames)),
			predEvents:   make([]*obs.Counter, len(predNames)),
			predEWMA:     make([]*obs.FloatGauge, len(predNames)),
		}
		for pi, name := range predNames {
			sm.predHits[pi] = r.Counter("vp_pred_hits_total", "correct predictions, per shard and predictor", "shard", sid, "pred", name)
			sm.predEvents[pi] = r.Counter("vp_pred_events_total", "predicted events, per shard and predictor", "shard", sid, "pred", name)
			sm.predEWMA[pi] = r.FloatGauge("vp_pred_hit_rate_ewma", "per-batch hit-rate EWMA (online predictability signal), per shard and predictor", "shard", sid, "pred", name)
		}
		m.shards[i] = sm
	}
	return m
}

// batchLatency merges every shard's predict+update latency histogram —
// the end-of-run summary vpserve prints at shutdown.
func (m *serverMetrics) batchLatency() obs.HistSnap {
	var s obs.HistSnap
	for _, sm := range m.shards {
		sm.batchNs.AddTo(&s)
	}
	return s
}

// healthState backs the degraded-status logic of GET /healthz.
type healthState struct {
	// cutStart is the UnixNano at which an in-flight checkpoint cut
	// began, 0 when none is running. A cut pending past the configured
	// deadline marks the server degraded.
	cutStart atomic.Int64
	// sat[i] counts consecutive monitor ticks during which shard i's
	// mailbox sat at capacity; saturation sustained for the configured
	// number of intervals marks the server degraded.
	sat []atomic.Int64
}

func newHealthState(nshards int) *healthState {
	return &healthState{sat: make([]atomic.Int64, nshards)}
}
