// Package serve is the online value-prediction service: the paper's
// predictors behind a long-running, sharded TCP server that accepts
// (pc, value) event streams from many concurrent clients and answers with
// live per-predictor accuracy.
//
// Predictor state is partitioned into N shards by hash(pc). Each shard is
// owned by a single goroutine with a bounded FIFO mailbox consuming request
// sub-batches — shard state is touched by exactly one goroutine and the
// dispatch path's only lock is the shared (read) side of the checkpoint
// cut lock, mirroring internal/engine's batched delivery. Every event
// makes one combined predict+update round
// trip through the configured predictor bank (the paper's immediate-update
// protocol), and the per-batch correctness tallies stream back to the
// client in request order.
//
// Because every core.Predictor keeps strictly per-PC tables, sharding by
// PC preserves each static instruction's value subsequence exactly, so
// the service's accuracy is bit-identical to an offline replay of the
// same stream at any shard count — the property the end-to-end tests pin
// down. This operationalizes the framing of Macleod
// et al.'s "Universal Relationships in Measures of Unpredictability": run
// a bank of predictor classes side by side over a live stream and read
// predictability off the best performer. Alongside the binary protocol the
// server exposes HTTP /stats (per-shard and aggregate accuracy,
// events/sec, unique PCs, table occupancy — the per-stream history-depth
// statistics "Predictive Information" motivates) and /healthz.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/predstat"
	"repro/internal/snapshot"
)

// Event is one (pc, value) observation, the unit of the service protocol.
// Instruction categories stay client-side: the server predicts and tallies
// on the bare stream, like the substrate-free core predictors.
type Event struct {
	PC    uint64
	Value uint64
}

// DefaultMailboxDepth bounds each shard's mailbox: deep enough to keep
// shards busy under bursty arrivals, shallow enough that a slow shard
// exerts backpressure on connections instead of buffering unboundedly.
const DefaultMailboxDepth = 128

// ShardOf maps a PC to its owning shard. Both the server and the load
// generator use this function, so a driver partitioning a stream across C
// client connections by ShardOf(pc, C) keeps each PC's subsequence on one
// ordered connection — the condition for accuracy parity with offline
// replay at any concurrency.
func ShardOf(pc uint64, shards int) int {
	// splitmix64 finalizer: cheap and well-mixed, so consecutive PCs
	// (tight loops) spread across shards.
	x := pc
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(shards))
}

// bucketByShard copies the events (pcs[j], vals[j]) into dpcs and dvals,
// grown as needed, grouped by owning shard in shard order and kept in
// arrival order within each shard: the stable partition both dispatch
// and WarmBank apply, at every shard count. ends has one slot per shard;
// on return shard i's events are [ends[i-1], ends[i]) of the returned
// arrays (from 0 for shard 0).
func bucketByShard(pcs, vals, dpcs, dvals []uint64, ends []int) ([]uint64, []uint64) {
	n := len(pcs)
	if cap(dpcs) < n || cap(dvals) < n {
		dpcs, dvals = make([]uint64, n), make([]uint64, n)
	}
	dpcs, dvals = dpcs[:n], dvals[:n]
	clear(ends)
	for _, pc := range pcs {
		ends[ShardOf(pc, len(ends))]++
	}
	off := 0
	for i, c := range ends { // counts to start offsets
		ends[i] = off
		off += c
	}
	for j, pc := range pcs { // each start advances to its shard's end
		at := &ends[ShardOf(pc, len(ends))]
		dpcs[*at], dvals[*at] = pc, vals[j]
		*at++
	}
	return dpcs, dvals
}

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of state partitions (0 = GOMAXPROCS).
	Shards int
	// Predictors is the bank every shard runs (empty = the registry
	// entries for the paper's standard set: l, s2, fcm1, fcm2, fcm3).
	Predictors []core.NamedFactory
	// MailboxDepth bounds each shard's mailbox (0 = DefaultMailboxDepth).
	MailboxDepth int
	// CheckpointDir, when set, enables the HTTP POST /snapshot trigger
	// and is the default directory for WriteCheckpoint / Shutdown
	// checkpoints.
	CheckpointDir string
	// DeltaCheckpoints makes checkpoints incremental: each cut after a
	// full one writes a delta holding only the records changed since the
	// chain tip (the records of the PCs stepped since, and the FCMs'
	// changed contexts, by the change marks every predictor keeps), and
	// restore loads the full and applies the deltas.
	DeltaCheckpoints bool
	// FullEvery bounds a delta chain: after this many delta checkpoints
	// the next cut is forced full (0 = 8). Only meaningful with
	// DeltaCheckpoints. In either mode a durable full checkpoint sweeps
	// every older checkpoint from the directory.
	FullEvery int
	// Logger, when non-nil, receives the server's structured log lines
	// (checkpoints, restores, degraded transitions).
	Logger *obs.Logger
	// Predstat configures the per-shard predictability trackers (entropy
	// ceilings, sequence classes, ceiling-gap attribution); the zero
	// value means defaults. Set PredstatDisabled to turn the subsystem
	// off entirely (no observer attached to the banks).
	Predstat         predstat.Config
	PredstatDisabled bool
	// TraceSpanRing caps each trace lane's provisional span ring
	// (0 = 4096 spans per lane; one lane per shard plus a control lane).
	TraceSpanRing int
	// TraceRetain caps the retained-trace flight recorder served by
	// GET /trace (0 = 64 traces).
	TraceRetain int
	// TraceSlowNs is the floor of the tail-sampling slow threshold: a
	// traced request whose total latency reaches the threshold is
	// retained. The monitor adapts the threshold upward to the live
	// p99 of vp_request_ns, never below this floor (0 = 10ms).
	TraceSlowNs int64
}

// Health monitoring: the monitor samples every defaultHealthTick, and
// /healthz reports degraded while a checkpoint cut has been in flight
// longer than defaultHealthCheckpointDeadline, or a shard mailbox has sat
// at capacity for defaultHealthSaturationIntervals consecutive ticks.
const (
	defaultHealthCheckpointDeadline  = 30 * time.Second
	defaultHealthSaturationIntervals = 3
	defaultHealthTick                = time.Second
)

// defaultTraceSlowNs is the tail-sampling threshold floor: generous next
// to the µs-scale steady state, so retained traces mean something even
// before the adaptive p99 has data.
const defaultTraceSlowNs = int64(10 * time.Millisecond)

// Server is a running value-prediction service.
type Server struct {
	cfg       Config
	predNames []string
	shards    []*shard
	start     time.Time

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	started bool
	closed  bool
	httpErr error // first fatal error from the HTTP stats listener
	// statsMu orders Stats's mailbox sends against Close's mailbox
	// close, without making stats polls contend with connection
	// registration on mu.
	statsMu sync.Mutex
	// cutMu makes checkpoints request-atomic: dispatch holds it shared
	// while mailing one request's sub-batches, a checkpoint holds it
	// exclusively while mailing its capture markers, so the cut can never
	// land between two shards of the same request.
	cutMu sync.RWMutex
	// ckptMu serializes whole checkpoints (plan, cut, assemble, chain
	// update) against each other: the periodic ticker, POST /snapshot and
	// shutdown may race, and the delta chain state must advance one
	// checkpoint at a time.
	ckptMu sync.Mutex
	// chain is the live checkpoint chain's tip state; mutated only under
	// ckptMu.
	chain chainState

	// restoredID / restoredAt identify the snapshot this server was
	// warm-started from (empty when cold-started); set before Start.
	restoredID string
	restoredAt time.Time

	// metrics, ring and health are the observability plane: every series
	// registered at construction, written lock-free from the serving
	// layers, scraped by GET /metrics, /events and /healthz.
	metrics *serverMetrics
	ring    *obs.Ring
	health  *healthState
	log     *obs.Logger
	// tracer records request spans: lane i belongs to shard i's goroutine,
	// lane len(shards) is the shared control lane (conn writers, dispatch,
	// checkpoints). GET /trace serves its flight recorder.
	tracer *otrace.Recorder

	monitorStop chan struct{}
	monitorDone chan struct{}

	connWG   sync.WaitGroup
	acceptWG sync.WaitGroup
}

// New validates the configuration and builds the shard set (not yet
// listening; call Start).
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = DefaultMailboxDepth
	}
	if len(cfg.Predictors) == 0 {
		cfg.Predictors = core.StandardFactories()
	}
	names := make([]string, len(cfg.Predictors))
	for i, f := range cfg.Predictors {
		names[i] = f.Name
	}
	if cfg.CheckpointDir != "" {
		// The directory belongs to this server now; temp files a crashed
		// predecessor left mid-checkpoint are dead weight.
		if _, err := snapshot.SweepTemp(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	if cfg.TraceSlowNs <= 0 {
		cfg.TraceSlowNs = defaultTraceSlowNs
	}
	if cfg.FullEvery <= 0 {
		cfg.FullEvery = defaultFullEvery
	}
	s := &Server{
		cfg:       cfg,
		predNames: names,
		shards:    make([]*shard, cfg.Shards),
		conns:     make(map[net.Conn]struct{}),
		start:     time.Now(),
		ring:      obs.NewRing(0), // the ring's default capacity, 256 events
		health:    newHealthState(cfg.Shards),
		log:       cfg.Logger,
	}
	s.metrics = newServerMetrics(s.start, cfg.Shards, names)
	s.tracer = otrace.NewRecorder(otrace.Config{
		Lanes:    cfg.Shards + 1,
		SpanRing: cfg.TraceSpanRing,
		Retain:   cfg.TraceRetain,
		SlowNs:   cfg.TraceSlowNs,
		Registry: s.metrics.reg,
	})
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg.Predictors, cfg.MailboxDepth, s.metrics.shards[i])
		s.shards[i].ring = s.ring
		s.shards[i].tracer = s.tracer
		if !cfg.PredstatDisabled {
			pcfg := cfg.Predstat
			pcfg.PredNames = names
			pcfg.Ring = s.ring
			pcfg.Shard = i
			s.shards[i].pstat = predstat.NewTracker(pcfg)
			s.shards[i].bank.SetObserver(s.shards[i].pstat)
		}
	}
	s.metrics.reg.OnScrape(s.fillStateBytes)
	if !cfg.PredstatDisabled {
		// Predictability families are rebuilt from the live trackers on
		// each scrape, so their cost lands on /metrics, not the event path.
		s.metrics.reg.OnScrape(s.fillPredstatMetrics)
	}
	return s, nil
}

// fillStateBytes refreshes the scrape-derived vp_state_bytes family from
// a stats capture, the one /stats makes: each predictor's byte account
// per shard. The series register on the first scrape after Start, which
// keeps them off server construction.
func (s *Server) fillStateBytes() {
	const help = "predictor table bytes, per shard and predictor: used by live entries, or reserved (allocated, used included)"
	for _, st := range s.Stats().PerShard {
		sid := strconv.Itoa(st.Shard)
		for i, ps := range st.Predictors {
			name := s.predNames[i]
			s.metrics.reg.Gauge("vp_state_bytes", help, "shard", sid, "pred", name, "kind", "used").Set(ps.StateBytes.Used)
			s.metrics.reg.Gauge("vp_state_bytes", help, "shard", sid, "pred", name, "kind", "reserved").Set(ps.StateBytes.Reserved)
		}
	}
}

// fillPredstatMetrics refreshes the scrape-derived predictability
// families from a fresh cross-shard report.
func (s *Server) fillPredstatMetrics() {
	rep := s.PredictabilityReport(1)
	m := s.metrics
	m.pcEntropy.Reset()
	for _, bits := range rep.EntropyBits {
		mb := int64(bits * 1000) // millibits: keeps sub-bit resolution in log2 buckets
		m.pcEntropy.ObserveInt(mb)
	}
	for _, cls := range predstat.ClassLabels {
		m.seqclassEvents[cls].Set(int64(rep.ClassEvents[cls]))
	}
	for i, g := range rep.GapByPred {
		if i < len(m.predCeilingGap) {
			m.predCeilingGap[i].Set(g.Gap)
		}
	}
}

// PredictabilityReport gathers every shard's predictability tracker
// through its mailbox (never racing shard state) and merges them, keeping
// the topN hardest/easiest PCs. Before Start and once Close has begun it
// returns an empty report; likewise when the subsystem is disabled.
func (s *Server) PredictabilityReport(topN int) *predstat.Report {
	rep := &predstat.Report{}
	if s.cfg.PredstatDisabled {
		return rep
	}
	replies := make([]chan *predstat.Report, len(s.shards))
	s.statsMu.Lock()
	s.mu.Lock()
	live := s.started && !s.closed
	s.mu.Unlock()
	if !live {
		s.statsMu.Unlock()
		return rep
	}
	for i, sh := range s.shards {
		replies[i] = make(chan *predstat.Report, 1)
		sh.mailbox <- shardMsg{pstat: replies[i], pstatN: topN}
	}
	s.statsMu.Unlock()
	for i := range s.shards {
		rep.Merge(<-replies[i], topN)
	}
	return rep
}

// MetricsRegistry exposes the server's metric registry, the source of
// GET /metrics; callers may register additional series on it before
// Start.
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics.reg }

// EventRing exposes the server's stage-event trace ring (GET /events).
func (s *Server) EventRing() *obs.Ring { return s.ring }

// BatchLatency merges every shard's predict+update batch latency
// histogram — p50/p90/p99/max of the serving hot path, the end-of-run
// summary vpserve prints at shutdown.
func (s *Server) BatchLatency() obs.HistSnap { return s.metrics.batchLatency() }

// Predictors returns the configured predictor names in bank order.
func (s *Server) Predictors() []string { return append([]string(nil), s.predNames...) }

// Tracer exposes the server's span recorder (GET /trace's source).
func (s *Server) Tracer() *otrace.Recorder { return s.tracer }

// controlLane is the tracer lane shared by non-shard writers: conn
// readers/writers (dispatch enqueue + whole-request spans) and the
// checkpoint machinery. Shard i writes lane i.
func (s *Server) controlLane() int { return len(s.shards) }

// Start launches the shard goroutines and begins accepting on addr
// (binary protocol). When httpAddr is non-empty, /stats and /healthz are
// served there. Use "127.0.0.1:0" to bind an ephemeral port and read it
// back from Addr / HTTPAddr.
func (s *Server) Start(addr, httpAddr string) error {
	// Bind every listener before spawning anything, so a failed Start
	// leaves no goroutines behind and no half-initialized Server.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	var hl net.Listener
	if httpAddr != "" {
		hl, err = net.Listen("tcp", httpAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: http: %w", err)
		}
	}
	s.mu.Lock()
	if s.closed || s.started {
		s.mu.Unlock()
		ln.Close()
		if hl != nil {
			hl.Close()
		}
		return errors.New("serve: server already started or closed")
	}
	s.started = true
	s.ln = ln
	s.mu.Unlock()
	for _, sh := range s.shards {
		go sh.run()
	}
	s.monitorStop = make(chan struct{})
	s.monitorDone = make(chan struct{})
	go s.monitor()
	s.acceptWG.Add(1)
	go s.acceptLoop()
	if hl != nil {
		s.httpLn = hl
		s.httpSrv = &http.Server{Handler: s.httpHandler()}
		go func() {
			if err := s.httpSrv.Serve(hl); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.mu.Lock()
				if s.httpErr == nil {
					s.httpErr = err
				}
				s.mu.Unlock()
			}
		}()
	}
	return nil
}

// HTTPErr reports the first fatal error of the HTTP stats listener, nil
// while it is healthy (or disabled). A daemon can use it at exit to turn
// a silently dead introspection endpoint into a non-zero status.
func (s *Server) HTTPErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.httpErr
}

// Addr returns the binary-protocol listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// HTTPAddr returns the HTTP listen address, or nil when HTTP is disabled.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.metrics.connsTotal.Inc()
		s.metrics.connsOpen.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
			s.metrics.connsOpen.Add(-1)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, tears down open connections, drains the shards
// and shuts the HTTP endpoint. Safe to call once, including on a server
// that was never started (or whose Start failed).
func (s *Server) Close() error {
	_, err := s.shutdown("")
	return err
}

// Shutdown is the graceful flavor of Close: stop accepting, tear down
// connections, wait for every in-flight request to finish, then — when
// dir is non-empty — write a final checkpoint of the fully drained state
// before stopping the shard goroutines. The returned CheckpointInfo is
// zero when no checkpoint was requested or the server never started.
func (s *Server) Shutdown(dir string) (CheckpointInfo, error) {
	return s.shutdown(dir)
}

func (s *Server) shutdown(ckptDir string) (CheckpointInfo, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CheckpointInfo{}, errors.New("serve: already closed")
	}
	s.closed = true
	started := s.started
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.acceptWG.Wait()
	s.connWG.Wait()
	if s.monitorStop != nil {
		close(s.monitorStop)
		<-s.monitorDone
	}
	s.ring.Add(obs.StageEvent{Kind: evDrain, Shard: -1, N: s.lifetimeEvents()})
	// Drain in-flight HTTP handlers (which may be mid-Stats) before the
	// mailboxes close underneath them.
	if s.httpSrv != nil {
		s.httpSrv.Shutdown(context.Background())
	}
	// With every connection handler done, all dispatched sub-batches are
	// already answered, so the mailboxes are quiet: the final checkpoint
	// below observes the fully drained state.
	var info CheckpointInfo
	if ckptDir != "" && started {
		var ckErr error
		info, ckErr = s.checkpointShards(ckptDir)
		if ckErr != nil {
			err = ckErr
		}
	}
	s.statsMu.Lock()
	for _, sh := range s.shards {
		close(sh.mailbox)
	}
	s.statsMu.Unlock()
	if started {
		for _, sh := range s.shards {
			<-sh.stopped
		}
	}
	return info, err
}

// monitor samples each shard's mailbox between Start and shutdown: it
// maintains the depth gauges and high-water marks and counts consecutive
// ticks of saturation for the /healthz degraded signal. Reading len/cap
// of a shard's mailbox is safe from here — channel length is always
// readable, and the mailboxes outlive the monitor (shutdown stops it
// before closing them).
func (s *Server) monitor() {
	defer close(s.monitorDone)
	t := time.NewTicker(defaultHealthTick)
	defer t.Stop()
	for {
		select {
		case <-s.monitorStop:
			return
		case <-t.C:
			for i, sh := range s.shards {
				d := len(sh.mailbox)
				m := s.metrics.shards[i]
				m.mailboxDepth.Set(int64(d))
				m.mailboxHW.SetMax(int64(d))
				if d >= cap(sh.mailbox) {
					if n := s.health.sat[i].Add(1); n == defaultHealthSaturationIntervals {
						s.log.Warn("shard mailbox saturated", "shard", i, "intervals", n)
					}
				} else {
					s.health.sat[i].Store(0)
				}
			}
			// Adapt the tail-sampling slow threshold to the live request
			// latency: a trace is "slow" when it lands past today's p99,
			// never below the configured floor.
			if snap := s.metrics.requestNs.Snapshot(); snap.Count > 0 {
				ns := int64(snap.Quantile(0.99))
				if ns < s.cfg.TraceSlowNs {
					ns = s.cfg.TraceSlowNs
				}
				s.tracer.SetSlowNs(ns)
			}
		}
	}
}

// healthReasons returns why the server is degraded, empty when healthy.
func (s *Server) healthReasons(now time.Time) []string {
	var reasons []string
	if cs := s.health.cutStart.Load(); cs != 0 {
		if age := now.Sub(time.Unix(0, cs)); age > defaultHealthCheckpointDeadline {
			reasons = append(reasons, fmt.Sprintf(
				"checkpoint cut in flight for %s (deadline %s)", age.Round(time.Millisecond), defaultHealthCheckpointDeadline))
		}
	}
	for i := range s.health.sat {
		if n := s.health.sat[i].Load(); n >= defaultHealthSaturationIntervals {
			reasons = append(reasons, fmt.Sprintf(
				"shard %d mailbox saturated for %d intervals", i, n))
		}
	}
	return reasons
}

// Stats snapshots every shard through its mailbox (so snapshots never race
// shard state) and aggregates. Before Start and once Close has begun it
// returns an empty snapshot rather than touching inert or draining shards.
func (s *Server) Stats() Snapshot {
	snap := Snapshot{
		Shards:             len(s.shards),
		UptimeSec:          time.Since(s.start).Seconds(),
		PerShard:           make([]ShardStats, len(s.shards)),
		Predictors:         make([]PredStat, len(s.predNames)),
		StartedAt:          s.start.UTC().Format(time.RFC3339Nano),
		RestoredSnapshotID: s.restoredID,
	}
	if !s.restoredAt.IsZero() {
		snap.RestoredAt = s.restoredAt.UTC().Format(time.RFC3339Nano)
	}
	m := s.metrics
	snap.Protocol = ProtoStats{
		ConnsOpen:         m.connsOpen.Load(),
		ConnsTotal:        m.connsTotal.Load(),
		FramesIn:          m.framesIn.Load(),
		FramesOut:         m.framesOut.Load(),
		BytesIn:           m.bytesIn.Load(),
		BytesOut:          m.bytesOut.Load(),
		DecodeErrors:      m.decodeErrors.Load(),
		PipelineHighWater: m.pipelineHW.Load(),
	}
	fulls, deltas := m.ckptTotal["full"].Load(), m.ckptTotal["delta"].Load()
	snap.Checkpoints = CkptStats{
		Count:         fulls + deltas,
		Errors:        m.ckptErrors.Load(),
		LastBytes:     m.ckptLastBytes.Load(),
		LastUnixNano:  m.ckptLastUnix.Load(),
		Full:          fulls,
		Deltas:        deltas,
		ChainDepth:    m.ckptChainDepth.Load(),
		ChunksWritten: m.ckptChunksWritten.Load(),
		ChunksDeduped: m.ckptChunksDeduped.Load(),
		DedupeRatio:   m.ckptDedupRatio.Load(),
	}
	replies := make([]chan ShardStats, len(s.shards))
	s.statsMu.Lock()
	s.mu.Lock()
	live := s.started && !s.closed
	s.mu.Unlock()
	if !live {
		s.statsMu.Unlock()
		return snap
	}
	for i, sh := range s.shards {
		replies[i] = make(chan ShardStats, 1)
		sh.mailbox <- shardMsg{snap: replies[i]}
	}
	s.statsMu.Unlock()
	for i := range s.shards {
		snap.PerShard[i] = <-replies[i]
	}
	for i, name := range s.predNames {
		snap.Predictors[i].Name = name
	}
	for _, st := range snap.PerShard {
		snap.Events += st.Events
		snap.UniquePCs += st.UniquePCs // shards own disjoint PCs, so the sum is exact
		snap.StateBytes = snap.StateBytes.Plus(st.StateBytes)
		for i, ps := range st.Predictors {
			snap.Predictors[i].Correct += ps.Correct
			snap.Predictors[i].Total += ps.Total
			snap.Predictors[i].StaticPCs += ps.StaticPCs
			snap.Predictors[i].TableEntries += ps.TableEntries
			snap.Predictors[i].StateBytes = snap.Predictors[i].StateBytes.Plus(ps.StateBytes)
		}
	}
	for i := range snap.Predictors {
		if t := snap.Predictors[i].Total; t > 0 {
			snap.Predictors[i].AccuracyPct = 100 * float64(snap.Predictors[i].Correct) / float64(t)
		}
	}
	// The rate covers only what this process applied: each shard's
	// events are its restored base plus its applied-events cell.
	if snap.UptimeSec > 0 {
		served := snap.Events - uint64(s.metrics.restoredEvents.Load())
		snap.EventsPerSec = float64(served) / snap.UptimeSec
	}
	return snap
}

// lifetimeEvents is the events of learning behind the server's state: the
// restored base plus the events dispatched since start. Its value at
// connect time rides in the hello, so clients can tell a fresh server
// from a warm one.
func (s *Server) lifetimeEvents() uint64 {
	return uint64(s.metrics.restoredEvents.Load()) + s.metrics.events.Load()
}
