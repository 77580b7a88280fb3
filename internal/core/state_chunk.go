package core

// Chunk-granular state saving, the core half of delta checkpoints. A
// predictor's canonical SaveState stream is split at per-PC record
// boundaries into content-defined chunks: PC p opens a new chunk exactly
// when the upper half of mix64(p) hits the anchor mask (plus the first
// record, which always opens chunk 0). Anchors depend only on the PC value, so a stable PC
// membership yields a stable chunk partition across saves — the property
// that lets an unchanged chunk be skipped (or deduplicated by content
// hash) between checkpoints. Concatenating the header and every chunk's
// bytes reproduces the plain SaveState output byte for byte, so the
// existing LoadState path restores chunked saves unchanged.

import "io"

// chunkAnchorMask sets the expected chunk size: a PC opens a chunk with
// probability 1/(mask+1), so chunks average ~64 records — big enough to
// amortize per-chunk hashing, small enough that a localized working set
// dirties few of them.
const chunkAnchorMask = 63

// chunkAnchor reports whether pc opens a new chunk. mix64 decorrelates
// the decision from PC locality, so dense PC ranges still split evenly.
// The decision reads the UPPER half of the hash: the serving tier shards
// PCs by mix64(pc) mod the shard count, which consumes the low bits —
// anchoring on those same bits would funnel every anchor onto shard 0
// for power-of-two shard counts, leaving the other shards one giant
// chunk each.
func chunkAnchor(pc uint64) bool { return (mix64(pc)>>32)&chunkAnchorMask == 0 }

// ChunkSaver receives one predictor's state as a header plus a sequence
// of chunks. The callbacks must consume their byte slices synchronously:
// the buffers are reused by the driver.
type ChunkSaver struct {
	// Dirty reports whether pc's state may have changed since the parent
	// save. nil means everything is dirty.
	Dirty func(pc uint64) bool
	// CanSkip permits omitting the bytes of an all-clean chunk (Emit is
	// called with nil data). Skipping is only sound when the PC
	// membership is unchanged since the parent save: membership changes
	// move record boundaries and cross-chunk PC deltas, so the caller
	// must leave CanSkip false after any PC was inserted.
	CanSkip bool
	// Header receives the stream's header bytes (everything before the
	// first per-PC record), always present even when every chunk skips.
	Header func(hdr []byte) error
	// Emit receives one chunk: the PC of its first record, the record
	// count, and the encoded bytes. data == nil means the chunk was
	// skipped as clean — its bytes equal the parent save's chunk at the
	// same index.
	Emit func(firstPC uint64, records int, data []byte) error
}

// ChunkedStateful is a Stateful whose SaveState stream can also be
// produced chunk-wise. SaveStateChunks must emit exactly the bytes of
// SaveState, split as header + chunks.
type ChunkedStateful interface {
	Stateful
	SaveStateChunks(cs *ChunkSaver) error
}

// cachedSortedHandles returns handles ordered by ascending PC, reusing
// the cached order when it is still valid. Tables are append-only between
// resets, so a cached permutation of equal length that is still strictly
// ascending over the current PC slab is exactly the sorted order; the
// O(n) validation pass makes the cache safe even across Reset/LoadState
// (which change membership and invalidate it by failing the check).
func cachedSortedHandles(cache *[]int32, pcs []uint64) []int32 {
	hs := *cache
	if len(hs) == len(pcs) {
		ok := true
		var prev uint64
		for i, h := range hs {
			pc := pcs[h]
			if i > 0 && pc <= prev {
				ok = false
				break
			}
			prev = pc
		}
		if ok {
			return hs
		}
	}
	hs = sortedHandles(pcs)
	*cache = hs
	return hs
}

// chunkedSave drives one predictor's chunk-granular save: hdr's bytes go
// to cs.Header, then records are encoded in ascending-PC handle order
// with delta-encoded PCs (the canonical layout), split at anchor PCs.
// rec encodes one record's fields after the PC delta. The previous-PC
// cursor advances across skipped chunks, which is what makes a skipped
// chunk's bytes identical to the parent's: with stable membership the
// first record of the next encoded chunk sees the same predecessor PC.
func chunkedSave(cs *ChunkSaver, handles []int32, pcAt func(int32) uint64, hdr *stateEncoder, rec func(e *stateEncoder, h int32)) error {
	if err := cs.Header(hdr.buf); err != nil {
		return err
	}
	var e stateEncoder
	var prev uint64
	i := 0
	for i < len(handles) {
		j := i + 1
		for j < len(handles) && !chunkAnchor(pcAt(handles[j])) {
			j++
		}
		firstPC := pcAt(handles[i])
		dirty := !cs.CanSkip || cs.Dirty == nil
		if !dirty {
			for k := i; k < j; k++ {
				if cs.Dirty(pcAt(handles[k])) {
					dirty = true
					break
				}
			}
		}
		if !dirty {
			if err := cs.Emit(firstPC, j-i, nil); err != nil {
				return err
			}
			prev = pcAt(handles[j-1])
			i = j
			continue
		}
		e.buf = e.buf[:0]
		for k := i; k < j; k++ {
			h := handles[k]
			pc := pcAt(h)
			e.uvarint(pc - prev)
			rec(&e, h)
			prev = pc
		}
		if err := cs.Emit(firstPC, j-i, e.buf); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// SaveStateChunks implements ChunkedStateful.
func (p *LastValue) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(len(p.vals)))
	hs := cachedSortedHandles(&p.saveOrder, p.pcs)
	return chunkedSave(cs, hs, func(h int32) uint64 { return p.pcs[h] }, &hdr,
		func(e *stateEncoder, h int32) {
			e.uvarint(p.vals[h])
		})
}

// SaveStateChunks implements ChunkedStateful.
func (p *LastValueCounter) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(len(p.entries)))
	hs := cachedSortedHandles(&p.saveOrder, p.pcs)
	return chunkedSave(cs, hs, func(h int32) uint64 { return p.pcs[h] }, &hdr,
		func(e *stateEncoder, h int32) {
			ent := &p.entries[h]
			e.uvarint(ent.value)
			e.uvarint(uint64(ent.count))
		})
}

// SaveStateChunks implements ChunkedStateful.
func (p *LastValueConsecutive) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(len(p.entries)))
	hs := cachedSortedHandles(&p.saveOrder, p.pcs)
	return chunkedSave(cs, hs, func(h int32) uint64 { return p.pcs[h] }, &hdr,
		func(e *stateEncoder, h int32) {
			ent := &p.entries[h]
			e.uvarint(ent.value)
			e.uvarint(ent.candidate)
			e.uvarint(uint64(ent.runLength))
		})
}

// SaveStateChunks implements ChunkedStateful.
func (p *StrideSimple) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(len(p.entries)))
	hs := cachedSortedHandles(&p.saveOrder, p.pcs)
	return chunkedSave(cs, hs, func(h int32) uint64 { return p.pcs[h] }, &hdr,
		func(e *stateEncoder, h int32) {
			ent := &p.entries[h]
			e.uvarint(ent.last)
			e.uvarint(ent.stride)
			e.uvarint(uint64(ent.seen))
		})
}

// SaveStateChunks implements ChunkedStateful.
func (p *Stride2Delta) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(len(p.entries)))
	hs := cachedSortedHandles(&p.saveOrder, p.pcs)
	return chunkedSave(cs, hs, func(h int32) uint64 { return p.pcs[h] }, &hdr,
		func(e *stateEncoder, h int32) {
			ent := &p.entries[h]
			e.uvarint(ent.last)
			e.uvarint(ent.s1)
			e.uvarint(ent.s2)
			e.uvarint(uint64(ent.s1Count))
			e.uvarint(uint64(ent.seen))
		})
}

// SaveStateChunks implements ChunkedStateful.
func (p *StrideCounter) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(len(p.entries)))
	hs := cachedSortedHandles(&p.saveOrder, p.pcs)
	return chunkedSave(cs, hs, func(h int32) uint64 { return p.pcs[h] }, &hdr,
		func(e *stateEncoder, h int32) {
			ent := &p.entries[h]
			e.uvarint(ent.last)
			e.uvarint(ent.stride)
			e.uvarint(uint64(ent.count))
			e.uvarint(uint64(ent.seen))
		})
}

// WriteChunks is a convenience adapter: it drives SaveStateChunks with no
// skipping and concatenates header and chunks into w, which must equal
// SaveState's output byte for byte (pinned by state_chunk_test.go).
func WriteChunks(p ChunkedStateful, w io.Writer) error {
	emit := func(b []byte) error {
		_, err := w.Write(b)
		return err
	}
	return p.SaveStateChunks(&ChunkSaver{
		Header: emit,
		Emit:   func(_ uint64, _ int, data []byte) error { return emit(data) },
	})
}
