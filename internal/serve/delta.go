package serve

// Delta checkpoints: the serve-side half of the v2 incremental snapshot
// format. The server keeps a chain state between cuts — the tip
// checkpoint's ID, per-shard parent chunk descriptors, and the set of
// chunk hashes stored inline somewhere in the live chain. Each cut
// decides full-vs-delta under ckptMu, mails an immutable capture plan to
// every shard with the cut markers, and the shards serialize their
// predictor state chunk-wise on their own goroutines: clean chunks are
// skipped against the parent descriptors (dirty tracking is exact at
// bank granularity — every predictor in a bank observes every event),
// and fresh chunk bytes dedup by content hash against the whole chain.
// Any capture or write failure poisons the chain, forcing the next cut
// full, which is also what makes resetting the dirty bits right after a
// shard's capture sound.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/snapshot"
)

// defaultFullEvery is how many delta checkpoints may follow a full
// before the next cut is forced full, bounding restore chain length.
const defaultFullEvery = 8

// chainShard is one shard's capture descriptors from the chain tip: the
// bank's PC count at that capture (clean-chunk skipping is only sound
// while membership is unchanged) and, per predictor, the chunk table
// with data stripped — what the next capture copies for skipped chunks.
type chainShard struct {
	pcCount int
	preds   [][]snapshot.ChunkRef
}

// chainState tracks the live delta chain between checkpoints. Mutated
// only under ckptMu; shards see it through the immutable deltaPlan
// mailed with each cut marker.
type chainState struct {
	tipID     string
	depth     int
	sinceFull int
	// poisoned forces the next cut full: set when a capture or write
	// failed (shards may have reset dirty bits for a checkpoint that
	// never landed) and cleared by the next successful full.
	poisoned bool
	// hashes is every chunk hash stored inline somewhere in the live
	// chain — the set references may point into. Rebuilt at each full,
	// extended by each delta.
	hashes map[[snapshot.HashSize]byte]struct{}
	shards []chainShard
}

// deltaPlan is one shard's capture directive for one cut. It is built
// under ckptMu before the markers are mailed and never mutated while
// shards read it concurrently.
type deltaPlan struct {
	// full captures everything inline-or-self-referenced: no parent
	// skipping, no cross-file references (a chain root must resolve
	// alone).
	full bool
	// hashes is the chain's read-only dedup set (nil for a full cut).
	hashes map[[snapshot.HashSize]byte]struct{}
	// parent is this shard's tip capture descriptors (nil for a full
	// cut).
	parent *chainShard
}

// planCut decides full-vs-delta for the next checkpoint and builds the
// per-shard capture plans; nil when delta checkpoints are disabled.
// Called under ckptMu.
func (s *Server) planCut(forceFull bool) []*deltaPlan {
	if !s.cfg.DeltaCheckpoints {
		return nil
	}
	st := &s.chain
	full := forceFull || st.poisoned || st.tipID == "" ||
		st.sinceFull >= s.cfg.FullEvery || len(st.shards) != len(s.shards)
	plans := make([]*deltaPlan, len(s.shards))
	for i := range plans {
		p := &deltaPlan{full: full}
		if !full {
			p.hashes = st.hashes
			p.parent = &st.shards[i]
		}
		plans[i] = p
	}
	return plans
}

// deltaShardState is one shard's reply to a delta-mode capture marker.
type deltaShardState struct {
	sh      snapshot.DeltaShard
	pcCount int
	written int // chunks stored inline in this checkpoint
	deduped int // chunks stored as references (skipped clean or hash hit)
}

// captureDelta serializes the shard's predictor state chunk-wise for a
// v2 checkpoint; called on the shard goroutine, like captureState. On
// success the bank's dirty bits are reset — sound because any later
// failure of this checkpoint poisons the chain and forces the next cut
// full.
func (sh *shard) captureDelta(plan *deltaPlan) shardStateMsg {
	ds := &deltaShardState{
		sh: snapshot.DeltaShard{
			Shard:  sh.id,
			Events: sh.events,
			PCs:    sh.pcs.AppendSorted(make([]uint64, 0, sh.pcs.Len())),
			Preds:  make([]snapshot.DeltaPred, len(sh.preds)),
		},
		pcCount: sh.bank.PCCount(),
	}
	canSkip := !plan.full && plan.parent != nil && plan.parent.pcCount == ds.pcCount
	// seen dedups identical chunks within this shard's own capture;
	// references resolve against the written file itself, so this is
	// legal even in a full checkpoint.
	seen := make(map[[snapshot.HashSize]byte]struct{})
	// dedup classifies one freshly encoded chunk: a reference when its
	// hash is already stored in the chain (or earlier in this capture),
	// a copied inline chunk otherwise.
	dedup := func(firstPC uint64, records int, data []byte) snapshot.ChunkRef {
		h, crc := snapshot.ChunkKey(data)
		_, inChain := plan.hashes[h]
		if _, ok := seen[h]; ok || inChain {
			ds.deduped++
			return snapshot.ChunkRef{Hash: h, CRC: crc, Len: len(data), FirstPC: firstPC, Records: records}
		}
		seen[h] = struct{}{}
		ds.written++
		return snapshot.ChunkRef{
			Hash: h, CRC: crc, Len: len(data), FirstPC: firstPC, Records: records,
			Data: append([]byte(nil), data...),
		}
	}
	for i, p := range sh.preds {
		dp := &ds.sh.Preds[i]
		dp.Name = sh.names[i]
		dp.Correct = sh.acc[i].Correct
		dp.Total = sh.acc[i].Total
		var parent []snapshot.ChunkRef
		if plan.parent != nil && i < len(plan.parent.preds) {
			parent = plan.parent.preds[i]
		}
		idx := 0
		cs := &core.ChunkSaver{
			Dirty:   sh.bank.PCDirty,
			CanSkip: canSkip && parent != nil,
			Header: func(hdr []byte) error {
				dp.Header = append([]byte(nil), hdr...)
				return nil
			},
			Emit: func(firstPC uint64, records int, data []byte) error {
				k := idx
				idx++
				if data == nil {
					// Skipped clean chunk: its bytes equal the parent's
					// chunk at the same index. The descriptor copy is
					// cross-checked against the chunking the save just
					// produced — any drift is corruption, not a delta.
					if k >= len(parent) {
						return fmt.Errorf("serve: shard %d %q: clean chunk %d past parent table (%d chunks)",
							sh.id, dp.Name, k, len(parent))
					}
					pc := parent[k]
					if pc.FirstPC != firstPC || pc.Records != records {
						return fmt.Errorf("serve: shard %d %q: clean chunk %d misaligned with parent (pc %#x/%d vs %#x/%d)",
							sh.id, dp.Name, k, firstPC, records, pc.FirstPC, pc.Records)
					}
					ds.deduped++
					dp.Chunks = append(dp.Chunks, snapshot.ChunkRef{
						Hash: pc.Hash, CRC: pc.CRC, Len: pc.Len, FirstPC: firstPC, Records: records,
					})
					return nil
				}
				dp.Chunks = append(dp.Chunks, dedup(firstPC, records, data))
				return nil
			},
		}
		if err := p.SaveStateChunks(cs); err != nil {
			return shardStateMsg{err: fmt.Errorf("serve: shard %d: %w", sh.id, err)}
		}
	}
	sh.bank.ResetDirty()
	return shardStateMsg{delta: ds}
}

// assembleDelta drains the shard replies of a delta-mode cut, writes the
// v2 checkpoint file and advances the chain state. Mirrors
// assembleCheckpoint's metrics, ring events and trace spans, adding the
// chunk and chain telemetry. Called under ckptMu.
func (s *Server) assembleDelta(dir string, replies []chan shardStateMsg, plans []*deltaPlan, cutT0 time.Time, tctx otrace.Context) (CheckpointInfo, error) {
	defer s.health.cutStart.Store(0)
	full := plans[0].full
	kind := "delta"
	if full {
		kind = "full"
	}
	d := &snapshot.Delta{
		Meta: snapshot.DeltaMeta{
			CreatedUnixNano: time.Now().UnixNano(),
			Predictors:      append([]string(nil), s.predNames...),
		},
		Shards: make([]snapshot.DeltaShard, len(replies)),
	}
	if !full {
		d.Meta.ParentID = s.chain.tipID
		d.Meta.Depth = s.chain.depth + 1
	}
	shardStates := make([]*deltaShardState, len(replies))
	var firstErr error
	var events uint64
	written, deduped := 0, 0
	for i, ch := range replies {
		resp := <-ch // always drain every reply, even after an error
		if resp.err != nil && firstErr == nil {
			firstErr = resp.err
		}
		if resp.delta != nil {
			shardStates[i] = resp.delta
			d.Shards[i] = resp.delta.sh
			events += resp.delta.sh.Events
			written += resp.delta.written
			deduped += resp.delta.deduped
		}
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
	path, err := snapshot.WriteDeltaFileAtomic(dir, d)
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

	// The checkpoint is durable: advance the chain. Descriptors keep the
	// chunk tables but drop the inline bytes, so the retained state is
	// manifest-sized, not snapshot-sized.
	st := &s.chain
	st.tipID = d.Meta.ID
	st.depth = d.Meta.Depth
	if full {
		st.sinceFull = 0
		st.poisoned = false
		st.hashes = make(map[[snapshot.HashSize]byte]struct{})
	} else {
		st.sinceFull++
	}
	if len(st.shards) != len(replies) {
		st.shards = make([]chainShard, len(replies))
	}
	for i, dst := range shardStates {
		cs := chainShard{pcCount: dst.pcCount, preds: make([][]snapshot.ChunkRef, len(d.Shards[i].Preds))}
		for j := range d.Shards[i].Preds {
			chunks := d.Shards[i].Preds[j].Chunks
			refs := make([]snapshot.ChunkRef, len(chunks))
			copy(refs, chunks)
			for k := range refs {
				if refs[k].Data != nil {
					st.hashes[refs[k].Hash] = struct{}{}
					refs[k].Data = nil
				}
			}
			cs.preds[j] = refs
		}
		st.shards[i] = cs
	}

	var size int64
	if fi, statErr := os.Stat(path); statErr == nil {
		size = fi.Size()
	}
	m := s.metrics
	m.ckptTotal[kind].Inc()
	m.ckptBytes[kind].Add(uint64(size))
	m.ckptChunksWritten.Add(uint64(written))
	m.ckptChunksDeduped.Add(uint64(deduped))
	if written+deduped > 0 {
		m.ckptDedupRatio.Set(float64(deduped) / float64(written+deduped))
	}
	m.ckptChainDepth.Set(int64(st.depth))
	m.ckptLastBytes.Set(size)
	m.ckptLastUnix.Set(time.Now().UnixNano())
	s.ring.Add(obs.StageEvent{Kind: evCheckpointWritten, Shard: -1, DurNs: encNs, N: uint64(size),
		Detail: fmt.Sprintf("%s kind=%s depth=%d", d.Meta.ID, kind, st.depth)})
	s.log.Info("checkpoint written",
		"id", d.Meta.ID, "kind", kind, "depth", st.depth, "parent", d.Meta.ParentID,
		"events", d.Meta.Events, "bytes", size, "chunks_written", written, "chunks_deduped", deduped,
		"cut", time.Duration(cutNs), "encode", time.Duration(encNs))

	// A durable full supersedes every older chain: GC the files (and with
	// them every chunk only reachable through them). Best-effort — a
	// failed sweep never fails the checkpoint that just landed.
	if full {
		if removed, gcErr := snapshot.SweepSuperseded(dir, path, d.Meta.Events); gcErr != nil {
			s.log.Warn("checkpoint gc failed", "err", gcErr)
		} else if removed > 0 {
			s.log.Info("checkpoint gc", "removed", removed, "keep", d.Meta.ID)
		}
	}
	return CheckpointInfo{
		ID: d.Meta.ID, Path: path, Events: d.Meta.Events, Shards: len(d.Shards),
		Kind: kind, Depth: st.depth, ParentID: d.Meta.ParentID,
		ChunksWritten: written, ChunksDeduped: deduped,
	}, nil
}
