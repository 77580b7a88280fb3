package serve

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/snapshot"
)

// CheckpointInfo describes one written checkpoint.
type CheckpointInfo struct {
	// ID is the snapshot's content-addressed identifier.
	ID string `json:"id"`
	// Path is the checkpoint file written (temp-file + rename, so it is
	// complete or absent, never partial).
	Path string `json:"path"`
	// Events is the total event count captured across shards.
	Events uint64 `json:"events"`
	// Shards is the shard count of the captured layout.
	Shards int `json:"shards"`
	// Kind is "full" for a chain root or "delta".
	Kind string `json:"kind"`
	// Depth is the chain depth of this checkpoint (0 for a full);
	// ParentID names the previous chain link, empty for a full.
	Depth    int    `json:"depth,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// ChunksWritten and ChunksDeduped (names kept from the chunked
	// format) count, for a delta, the table entries it carried (per-PC
	// records and FCM contexts) and the clean entries it skipped.
	ChunksWritten int `json:"chunks_written,omitempty"`
	ChunksDeduped int `json:"chunks_deduped,omitempty"`
}

// WriteCheckpoint captures the full predictor state of a running server
// and writes it atomically into dir. The cut is request-atomic: capture
// markers ride each shard's FIFO mailbox under the exclusive cut lock,
// so every request dispatched before the checkpoint is fully included
// and every one dispatched after is fully excluded — each shard drains
// its queued sub-batches before serializing. Serving continues
// underneath; only dispatching pauses for the instant the markers are
// mailed.
func (s *Server) WriteCheckpoint(dir string) (CheckpointInfo, error) {
	return s.writeCheckpoint(dir, false)
}

// WriteFullCheckpoint is WriteCheckpoint with a forced full cut: in
// delta mode it roots a fresh chain (POST /snapshot?full=1); otherwise
// it is identical to WriteCheckpoint.
func (s *Server) WriteFullCheckpoint(dir string) (CheckpointInfo, error) {
	return s.writeCheckpoint(dir, true)
}

func (s *Server) writeCheckpoint(dir string, forceFull bool) (CheckpointInfo, error) {
	if dir == "" {
		return CheckpointInfo{}, errors.New("serve: no checkpoint directory configured")
	}
	// One checkpoint at a time: the chain state must advance atomically
	// from plan to written file.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	replies := make([]chan shardStateMsg, len(s.shards))
	s.statsMu.Lock()
	s.mu.Lock()
	live := s.started && !s.closed
	s.mu.Unlock()
	if !live {
		s.statsMu.Unlock()
		return CheckpointInfo{}, errors.New("serve: server is not running")
	}
	delta := s.cutDelta(forceFull)
	cutT0 := time.Now()
	s.health.cutStart.Store(cutT0.UnixNano())
	s.cutMu.Lock()
	for i, sh := range s.shards {
		replies[i] = make(chan shardStateMsg, 1)
		sh.mailbox <- shardMsg{state: replies[i], delta: delta}
	}
	s.cutMu.Unlock()
	s.statsMu.Unlock()
	return s.assembleCheckpoint(dir, replies, delta, cutT0, otrace.Mint())
}

// checkpointShards is the shutdown-path capture: connections are already
// drained and the mailboxes are quiet but still open, so the markers
// need no cut lock and observe the final state.
func (s *Server) checkpointShards(dir string) (CheckpointInfo, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	delta := s.cutDelta(false)
	cutT0 := time.Now()
	s.health.cutStart.Store(cutT0.UnixNano())
	replies := make([]chan shardStateMsg, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = make(chan shardStateMsg, 1)
		sh.mailbox <- shardMsg{state: replies[i], delta: delta}
	}
	return s.assembleCheckpoint(dir, replies, delta, cutT0, otrace.Mint())
}

// assembleCheckpoint drains the shard replies, writes the checkpoint (a
// root, or a delta on the chain tip) and advances the chain. tctx is the
// checkpoint's own minted trace: cut and encode become spans on the
// control lane and the trace is always retained, so checkpoint
// interference shows up in GET /trace alongside the requests it delayed.
// A durable root supersedes every older checkpoint in dir, which is
// swept. Called under ckptMu.
func (s *Server) assembleCheckpoint(dir string, replies []chan shardStateMsg, delta bool, cutT0 time.Time, tctx otrace.Context) (CheckpointInfo, error) {
	defer s.health.cutStart.Store(0)
	kind := "full"
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			CreatedUnixNano: time.Now().UnixNano(),
			Predictors:      append([]string(nil), s.predNames...),
		},
		Shards: make([]snapshot.ShardState, len(replies)),
	}
	if delta {
		kind = "delta"
		snap.Meta.ParentID, snap.Meta.Depth = s.chain.tipID, s.chain.depth+1
	}
	var firstErr error
	var events uint64
	written, skipped := 0, 0
	for i, ch := range replies {
		resp := <-ch // always drain every reply, even after an error
		if resp.err != nil && firstErr == nil {
			firstErr = resp.err
		}
		snap.Shards[i] = resp.st
		events += resp.st.Events
		written += resp.written
		skipped += resp.skipped
	}
	cutNs := time.Since(cutT0).Nanoseconds()
	s.metrics.ckptCutNs.ObserveInt(cutNs)
	s.ring.Add(obs.StageEvent{Kind: evCheckpointCut, Shard: -1, DurNs: cutNs, N: events})
	cutStartNs := cutT0.UnixNano()
	s.tracer.Record(s.controlLane(), otrace.Span{
		TraceID: tctx.TraceID, SpanID: tctx.SpanID,
		Stage: otrace.StageCheckpointCut, Shard: -1, Pred: -1,
		Start: cutStartNs, Dur: cutNs, N: events,
	})
	if firstErr != nil {
		s.chain.poisoned = true
		s.metrics.ckptErrors.Inc()
		s.ring.Add(obs.StageEvent{Kind: evCheckpointError, Shard: -1, Detail: firstErr.Error()})
		s.tracer.Promote(tctx, cutStartNs, cutNs, events, "checkpoint_error")
		return CheckpointInfo{}, firstErr
	}
	encT0 := time.Now()
	path, err := snapshot.WriteFileAtomic(dir, snap)
	encNs := time.Since(encT0).Nanoseconds()
	s.metrics.ckptEncodeNs.ObserveInt(encNs)
	s.tracer.Record(s.controlLane(), otrace.Span{
		TraceID: tctx.TraceID, SpanID: tctx.SpanID + 1, Parent: tctx.SpanID,
		Stage: otrace.StageCheckpointEncode, Shard: -1, Pred: -1,
		Start: encT0.UnixNano(), Dur: encNs, N: events,
	})
	s.tracer.Promote(tctx, cutStartNs, cutNs+encNs, events, "checkpoint")
	if err != nil {
		s.chain.poisoned = true
		s.metrics.ckptErrors.Inc()
		s.ring.Add(obs.StageEvent{Kind: evCheckpointError, Shard: -1, DurNs: encNs, Detail: err.Error()})
		return CheckpointInfo{}, err
	}
	s.chain.advance(snap.Meta)

	var size int64
	if fi, statErr := os.Stat(path); statErr == nil {
		size = fi.Size()
	}
	m := s.metrics
	m.ckptTotal[kind].Inc()
	m.ckptBytes[kind].Add(uint64(size))
	if delta {
		m.ckptChunksWritten.Add(uint64(written))
		m.ckptChunksDeduped.Add(uint64(skipped))
		if written+skipped > 0 {
			m.ckptDedupRatio.Set(float64(skipped) / float64(written+skipped))
		}
	}
	m.ckptChainDepth.Set(int64(snap.Meta.Depth))
	m.ckptLastBytes.Set(size)
	m.ckptLastUnix.Set(time.Now().UnixNano())
	s.ring.Add(obs.StageEvent{Kind: evCheckpointWritten, Shard: -1, DurNs: encNs, N: uint64(size),
		Detail: fmt.Sprintf("%s kind=%s depth=%d", snap.Meta.ID, kind, snap.Meta.Depth)})
	s.log.Info("checkpoint written",
		"id", snap.Meta.ID, "kind", kind, "depth", snap.Meta.Depth, "parent", snap.Meta.ParentID,
		"events", snap.Meta.Events, "bytes", size, "records", written, "skipped", skipped,
		"cut", time.Duration(cutNs), "encode", time.Duration(encNs))

	// Best-effort: a failed sweep never fails the checkpoint that just
	// landed.
	if !delta {
		if removed, gcErr := snapshot.SweepSuperseded(dir, path, snap.Meta.Events); gcErr != nil {
			s.log.Warn("checkpoint sweep failed", "err", gcErr)
		} else if removed > 0 {
			s.log.Info("checkpoint sweep", "removed", removed, "keep", snap.Meta.ID)
		}
	}
	return CheckpointInfo{
		ID: snap.Meta.ID, Path: path, Events: snap.Meta.Events, Shards: len(snap.Shards),
		Kind: kind, Depth: snap.Meta.Depth, ParentID: snap.Meta.ParentID,
		ChunksWritten: written, ChunksDeduped: skipped,
	}, nil
}

// Restore loads a decoded root snapshot into a server that has not
// started yet: Load, then RestoreLoaded.
func (s *Server) Restore(snap *snapshot.Snapshot) error {
	l, _, err := snapshot.Load(snap)
	if err != nil {
		return err
	}
	return s.RestoreLoaded(l)
}

// RestoreLoaded installs a loaded checkpoint into a server that has not
// started yet, replacing every shard's predictors, tallies, PC sets and
// event counts, and takes over the loaded predictors. The server must be
// configured with the checkpoint's exact shard count and predictor bank;
// after Start it continues bit-identically to the server that wrote the
// checkpoint. The restore is all-or-nothing: the state is swapped in only
// once every shard's section has been checked, so on error the server
// keeps its cold state and RestoredFrom stays "".
func (s *Server) RestoreLoaded(l *snapshot.Loaded) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return errors.New("serve: restore requires a server that has not been started")
	}
	if l.Meta.Shards != len(s.shards) {
		return fmt.Errorf("serve: snapshot %s has %d shards, server is configured with %d (restart with -shards %d)",
			l.Meta.ID, l.Meta.Shards, len(s.shards), l.Meta.Shards)
	}
	if !slices.Equal(l.Meta.Predictors, s.predNames) {
		return fmt.Errorf("serve: snapshot %s predictor bank %v does not match server bank %v",
			l.Meta.ID, l.Meta.Predictors, s.predNames)
	}
	t0 := time.Now()
	pcs := make([]core.PCSet, len(s.shards))
	for i := range s.shards {
		var err error
		if pcs[i], err = shardPCs(i, l.Shards[i].PCs, len(s.shards)); err != nil {
			return err
		}
	}
	preds, err := l.Take()
	if err != nil {
		return err
	}
	var events uint64
	for i, sh := range s.shards {
		sh.install(l.Shards[i], preds[i], pcs[i])
		events += l.Shards[i].Events
	}
	dur := l.Dur + time.Since(t0)
	s.restoredID = l.Meta.ID
	s.restoredAt = time.Now()
	s.metrics.restoreTotal.Inc()
	s.metrics.restoredEvents.Set(int64(events))
	s.ring.Add(obs.StageEvent{Kind: evRestore, Shard: -1, DurNs: dur.Nanoseconds(), N: events, Detail: l.Meta.ID})
	s.log.Info("warm restore", "id", l.Meta.ID, "events", events, "shards", len(s.shards), "load", dur)
	return nil
}

// RestoredFrom returns the snapshot ID this server was warm-started
// from, or "" after a cold start.
func (s *Server) RestoredFrom() string { return s.restoredID }

// WarmBank replays a stream through per-shard predictor banks restored
// from a snapshot, mirroring the server's sharded state layout exactly.
// It is the offline half of the warm-restart parity check: feed it the
// post-checkpoint remainder of a stream and its tallies must match what
// a server restored from the same snapshot returns for that remainder.
// Replay buckets events by shard with the server's dispatch function and
// runs them through core.Bank.StepBatch — the same batch path the
// server's shard loop uses — so online serving and offline warm replay
// execute identical code.
type WarmBank struct {
	names  []string
	shards []*core.Bank
	events uint64
	// Batch scratch, reused across StepBatch calls: one chunk's pcs and
	// values, the same chunk bucketed by shard, and the shard ends.
	pcs, vals   []uint64
	spcs, svals []uint64
	ends        []int
}

// warmChunk bounds the events one StepBatch call buckets at once, so
// replaying a multi-million-event stream keeps constant scratch memory.
const warmChunk = 4096

// NewWarmBank builds the per-shard banks from a decoded root snapshot:
// Load, then WarmBankOf.
func NewWarmBank(snap *snapshot.Snapshot) (*WarmBank, error) {
	l, _, err := snapshot.Load(snap)
	if err != nil {
		return nil, err
	}
	return WarmBankOf(l)
}

// WarmBankOf builds the per-shard banks from a loaded checkpoint and
// takes over its predictors.
func WarmBankOf(l *snapshot.Loaded) (*WarmBank, error) {
	preds, err := l.Take()
	if err != nil {
		return nil, err
	}
	b := &WarmBank{
		names:  append([]string(nil), l.Meta.Predictors...),
		shards: make([]*core.Bank, len(preds)),
		ends:   make([]int, len(preds)),
	}
	for si, ps := range preds {
		b.shards[si] = core.NewBank(ps...)
	}
	return b, nil
}

// Step applies one event to the owning shard's bank, tallying correct
// predictions exactly like the server's shard loop. Streams long enough
// to batch should go through StepBatch.
func (b *WarmBank) Step(pc, value uint64) {
	b.StepBatch([]Event{{PC: pc, Value: value}})
}

// StepBatch replays a batch of events: each chunk is bucketed stably by
// owning shard through bucketByShard, the function the server's dispatch
// uses, and each shard's run is fed to its bank through the shared batch
// path.
func (b *WarmBank) StepBatch(evs []Event) {
	for off := 0; off < len(evs); off += warmChunk {
		chunk := evs[off:min(off+warmChunk, len(evs))]
		b.pcs, b.vals = b.pcs[:0], b.vals[:0]
		for _, ev := range chunk {
			b.pcs = append(b.pcs, ev.PC)
			b.vals = append(b.vals, ev.Value)
		}
		b.spcs, b.svals = bucketByShard(b.pcs, b.vals, b.spcs, b.svals, b.ends)
		lo := 0
		for i, hi := range b.ends {
			if hi > lo {
				b.shards[i].StepBatch(b.spcs[lo:hi], b.svals[lo:hi])
			}
			lo = hi
		}
		b.events += uint64(len(chunk))
	}
}

// Predictors returns the bank's predictor names in tally order.
func (b *WarmBank) Predictors() []string { return append([]string(nil), b.names...) }

// Correct returns the per-predictor correct tallies since construction.
func (b *WarmBank) Correct() []uint64 {
	out := make([]uint64, len(b.names))
	for _, bank := range b.shards {
		for i, c := range bank.Correct() {
			out[i] += c
		}
	}
	return out
}

// Events returns how many events have been stepped.
func (b *WarmBank) Events() uint64 { return b.events }

// TableEntries sums the table occupancy of every predictor over all
// shards: static instructions tracked and total table entries (contexts,
// for an FCM).
func (b *WarmBank) TableEntries() (static, total int) {
	for _, bank := range b.shards {
		for _, p := range bank.Predictors() {
			s, t := p.TableEntries()
			static, total = static+s, total+t
		}
	}
	return static, total
}
