package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
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
	// Kind is "full" or "delta" (v1 checkpoints are always full).
	Kind string `json:"kind"`
	// Depth is the chain depth of this checkpoint (0 for a full);
	// ParentID names the previous chain link, empty for a full.
	Depth    int    `json:"depth,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// ChunksWritten / ChunksDeduped split this checkpoint's chunk table
	// into inline chunks and content-hash references (delta mode only).
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
	plans := s.planCut(forceFull)
	cutT0 := time.Now()
	s.health.cutStart.Store(cutT0.UnixNano())
	s.cutMu.Lock()
	for i, sh := range s.shards {
		replies[i] = make(chan shardStateMsg, 1)
		msg := shardMsg{state: replies[i]}
		if plans != nil {
			msg.plan = plans[i]
		}
		sh.mailbox <- msg
	}
	s.cutMu.Unlock()
	s.statsMu.Unlock()
	return s.assembleCheckpoint(dir, replies, plans, cutT0, otrace.Mint())
}

// checkpointShards is the shutdown-path capture: connections are already
// drained and the mailboxes are quiet but still open, so the markers
// need no cut lock and observe the final state.
func (s *Server) checkpointShards(dir string) (CheckpointInfo, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	plans := s.planCut(false)
	cutT0 := time.Now()
	s.health.cutStart.Store(cutT0.UnixNano())
	replies := make([]chan shardStateMsg, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = make(chan shardStateMsg, 1)
		msg := shardMsg{state: replies[i]}
		if plans != nil {
			msg.plan = plans[i]
		}
		sh.mailbox <- msg
	}
	return s.assembleCheckpoint(dir, replies, plans, cutT0, otrace.Mint())
}

// assembleCheckpoint drains the shard replies and writes the snapshot.
// tctx is the checkpoint's own minted trace: cut and encode become spans
// on the control lane and the trace is always retained, so checkpoint
// interference shows up in GET /trace alongside the requests it delayed.
func (s *Server) assembleCheckpoint(dir string, replies []chan shardStateMsg, plans []*deltaPlan, cutT0 time.Time, tctx otrace.Context) (CheckpointInfo, error) {
	if plans != nil {
		return s.assembleDelta(dir, replies, plans, cutT0, tctx)
	}
	defer s.health.cutStart.Store(0)
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			CreatedUnixNano: time.Now().UnixNano(),
			Predictors:      append([]string(nil), s.predNames...),
		},
		Shards: make([]snapshot.ShardState, len(replies)),
	}
	var firstErr error
	var events uint64
	for i, ch := range replies {
		resp := <-ch // always drain every reply, even after an error
		if resp.err != nil && firstErr == nil {
			firstErr = resp.err
		}
		snap.Shards[i] = resp.st
		events += resp.st.Events
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
		s.metrics.ckptErrors.Inc()
		s.ring.Add(obs.StageEvent{Kind: evCheckpointError, Shard: -1, DurNs: encNs, Detail: err.Error()})
		return CheckpointInfo{}, err
	}
	var size int64
	if fi, statErr := os.Stat(path); statErr == nil {
		size = fi.Size()
	}
	s.metrics.ckptTotal["full"].Inc()
	s.metrics.ckptBytes["full"].Add(uint64(size))
	s.metrics.ckptLastBytes.Set(size)
	s.metrics.ckptLastUnix.Set(time.Now().UnixNano())
	s.ring.Add(obs.StageEvent{Kind: evCheckpointWritten, Shard: -1, DurNs: encNs, N: uint64(size), Detail: snap.Meta.ID})
	s.log.Info("checkpoint written",
		"id", snap.Meta.ID, "events", snap.Meta.Events, "bytes", size,
		"cut", time.Duration(cutNs), "encode", time.Duration(encNs))
	return CheckpointInfo{ID: snap.Meta.ID, Path: path, Events: snap.Meta.Events, Shards: len(snap.Shards), Kind: "full"}, nil
}

// Restore loads a decoded snapshot into a server that has not started
// yet, replacing every shard's predictors, tallies, PC sets and event
// counts. The server must be configured with the snapshot's exact shard
// count and predictor bank; after Start it continues bit-identically to
// the server that wrote the checkpoint. The shards load in parallel, one
// goroutine each, and the restore is all-or-nothing: the loaded state is
// swapped in only once every shard has loaded, so on error the server
// keeps its cold state and RestoredFrom stays "".
func (s *Server) Restore(snap *snapshot.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return errors.New("serve: restore requires a server that has not been started")
	}
	if snap.Meta.Shards != len(s.shards) {
		return fmt.Errorf("serve: snapshot %s has %d shards, server is configured with %d (restart with -shards %d)",
			snap.Meta.ID, snap.Meta.Shards, len(s.shards), snap.Meta.Shards)
	}
	if !slices.Equal(snap.Meta.Predictors, s.predNames) {
		return fmt.Errorf("serve: snapshot %s predictor bank %v does not match server bank %v",
			snap.Meta.ID, snap.Meta.Predictors, s.predNames)
	}
	t0 := time.Now()
	pcs := make([]core.PCSet, len(s.shards))
	for i := range s.shards {
		var err error
		if pcs[i], err = shardPCs(i, snap.Shards[i].PCs, len(s.shards)); err != nil {
			return err
		}
	}
	banks, err := loadShards(s.cfg.Predictors, snap.Shards)
	if err != nil {
		return err
	}
	var events uint64
	for i, sh := range s.shards {
		sh.install(snap.Shards[i], banks[i], pcs[i])
		events += snap.Shards[i].Events
	}
	dur := time.Since(t0)
	s.eventsServed.Store(events)
	s.restoredID = snap.Meta.ID
	s.restoredAt = time.Now()
	s.metrics.restoreTotal.Inc()
	s.metrics.restoredEvents.Set(int64(events))
	s.ring.Add(obs.StageEvent{Kind: evRestore, Shard: -1, DurNs: dur.Nanoseconds(), N: events, Detail: snap.Meta.ID})
	s.log.Info("warm restore", "id", snap.Meta.ID, "events", events, "shards", len(s.shards), "load", dur)
	return nil
}

// loadShards loads every shard section's predictors concurrently, one
// goroutine per shard, and returns once all of them have finished: the
// predictor banks in shard order, or the error of the lowest failing
// shard.
func loadShards(facs []core.NamedFactory, shards []snapshot.ShardState) ([][]core.Predictor, error) {
	banks := make([][]core.Predictor, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			banks[i], errs[i] = loadPredictors(facs, i, shards[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return banks, nil
}

// loadPredictors builds shard si's predictors from their factories and
// loads each from its saved state.
func loadPredictors(facs []core.NamedFactory, si int, st snapshot.ShardState) ([]core.Predictor, error) {
	preds := make([]core.Predictor, len(facs))
	for i, f := range facs {
		p := f.New()
		if err := p.LoadState(bytes.NewReader(st.Preds[i].State)); err != nil {
			return nil, fmt.Errorf("serve: shard %d: restoring %q: %w", si, f.Name, err)
		}
		preds[i] = p
	}
	return preds, nil
}

// RestoredFrom returns the snapshot ID this server was warm-started
// from, or "" after a cold start.
func (s *Server) RestoredFrom() string { return s.restoredID }

// WarmBank replays a stream through per-shard predictor banks restored
// from a snapshot, mirroring the server's sharded state layout exactly.
// It is the offline half of the warm-restart parity check: feed it the
// post-checkpoint remainder of a stream and its tallies must match what
// a server restored from the same snapshot returns for that remainder.
// Replay runs through core.Bank.StepBatch — the same batch path the
// server's shard loop uses — so online serving and offline warm replay
// execute identical code.
type WarmBank struct {
	names  []string
	shards []*core.Bank
	events uint64
	// Batch scratch: shard bucketing counters/cursors and the SoA split,
	// grouped by shard, all reused across StepBatch calls.
	cnt   []int
	pos   []int
	spcs  []uint64
	svals []uint64
	one   [2]uint64 // Step's 1-event batch (pc, value)
}

// warmChunk bounds the events one StepBatch call buckets at once, so
// replaying a multi-million-event stream keeps constant scratch memory.
const warmChunk = 4096

// NewWarmBank builds the per-shard banks from a snapshot, resolving
// predictors through the registry; the shards load in parallel through
// the same loader Server.Restore uses.
func NewWarmBank(snap *snapshot.Snapshot) (*WarmBank, error) {
	facs := make([]core.NamedFactory, len(snap.Meta.Predictors))
	for i, name := range snap.Meta.Predictors {
		fac, ok := core.FactoryByName(name)
		if !ok {
			return nil, fmt.Errorf("serve: snapshot predictor %q not in local registry", name)
		}
		facs[i] = fac
	}
	banks, err := loadShards(facs, snap.Shards)
	if err != nil {
		return nil, err
	}
	b := &WarmBank{
		names:  append([]string(nil), snap.Meta.Predictors...),
		shards: make([]*core.Bank, len(banks)),
		cnt:    make([]int, len(banks)),
		pos:    make([]int, len(banks)),
	}
	for si, preds := range banks {
		b.shards[si] = core.NewBank(preds...)
	}
	return b, nil
}

// Step applies one event to the owning shard's bank, tallying correct
// predictions exactly like the server's shard loop. Streams long enough
// to batch should go through StepBatch.
func (b *WarmBank) Step(pc, value uint64) {
	bank := b.shards[0]
	if len(b.shards) > 1 {
		bank = b.shards[ShardOf(pc, len(b.shards))]
	}
	b.one[0], b.one[1] = pc, value
	bank.StepBatch(b.one[:1], b.one[1:2])
	b.events++
}

// StepBatch replays a batch of events: each chunk is bucketed stably by
// owning shard (the transformation the server's dispatch applies) and
// fed to the per-shard banks through the shared batch path.
func (b *WarmBank) StepBatch(evs []Event) {
	nshards := len(b.shards)
	for off := 0; off < len(evs); off += warmChunk {
		chunk := evs[off:min(off+warmChunk, len(evs))]
		n := len(chunk)
		if cap(b.spcs) < n {
			b.spcs = make([]uint64, n)
			b.svals = make([]uint64, n)
		}
		pcs, vals := b.spcs[:n], b.svals[:n]
		if nshards == 1 {
			for j, ev := range chunk {
				pcs[j] = ev.PC
				vals[j] = ev.Value
			}
			b.shards[0].StepBatch(pcs, vals)
			b.events += uint64(n)
			continue
		}
		for i := range b.cnt {
			b.cnt[i] = 0
		}
		for _, ev := range chunk {
			b.cnt[ShardOf(ev.PC, nshards)]++
		}
		o := 0
		for i, c := range b.cnt {
			b.pos[i] = o
			o += c
		}
		for _, ev := range chunk {
			sh := ShardOf(ev.PC, nshards)
			pcs[b.pos[sh]] = ev.PC
			vals[b.pos[sh]] = ev.Value
			b.pos[sh]++
		}
		o = 0
		for i, c := range b.cnt {
			if c > 0 {
				b.shards[i].StepBatch(pcs[o:o+c], vals[o:o+c])
			}
			o += c
		}
		b.events += uint64(n)
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
