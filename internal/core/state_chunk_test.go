package core

import (
	"bytes"
	"testing"
)

// chunkCapture collects one SaveStateChunks run into inspectable form.
type chunkCapture struct {
	header  []byte
	chunks  [][]byte // nil element = skipped clean chunk
	firstPC []uint64
	records []int
}

func captureChunks(t *testing.T, p ChunkedStateful, dirty func(pc uint64) bool, canSkip bool) *chunkCapture {
	t.Helper()
	cc := &chunkCapture{}
	err := p.SaveStateChunks(&ChunkSaver{
		Dirty:   dirty,
		CanSkip: canSkip,
		Header: func(hdr []byte) error {
			cc.header = append([]byte(nil), hdr...)
			return nil
		},
		Emit: func(firstPC uint64, records int, data []byte) error {
			if data == nil {
				cc.chunks = append(cc.chunks, nil)
			} else {
				cc.chunks = append(cc.chunks, append([]byte(nil), data...))
			}
			cc.firstPC = append(cc.firstPC, firstPC)
			cc.records = append(cc.records, records)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("SaveStateChunks: %v", err)
	}
	return cc
}

// testPCs returns n distinct, well-spread PCs in ascending order so the
// anchor hash splits them into many chunks.
func testPCs(n int) []uint64 {
	pcs := make([]uint64, n)
	for i := range pcs {
		pcs[i] = uint64(i+1) * 24 // spread, ascending, distinct
	}
	return pcs
}

// TestSaveStateChunksParity pins the defining property of the chunked
// save: for every registry predictor, the concatenation of header and
// chunk bytes is byte-identical to the plain SaveState stream, so
// LoadState restores chunked saves unchanged.
func TestSaveStateChunksParity(t *testing.T) {
	pcs := testPCs(700)
	for _, f := range KnownFactories() {
		t.Run(f.Name, func(t *testing.T) {
			p := f.New()
			for i := 0; i < len(pcs)*12; i++ {
				pc := pcs[i%len(pcs)]
				p.Predict(pc)
				p.Update(pc, NonStride4[(uint64(i/len(pcs))+pc)%4]+pc%7)
			}
			var want bytes.Buffer
			if err := p.SaveState(&want); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			var got bytes.Buffer
			if err := WriteChunks(p, &got); err != nil {
				t.Fatalf("WriteChunks: %v", err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("chunked save differs from SaveState: %d vs %d bytes",
					got.Len(), want.Len())
			}
			cc := captureChunks(t, p, nil, false)
			if len(cc.chunks) < 4 {
				t.Fatalf("expected many chunks over %d PCs, got %d", len(pcs), len(cc.chunks))
			}
			// A second capture must agree with itself (cache validity) and
			// with the first.
			cc2 := captureChunks(t, p, nil, false)
			if len(cc2.chunks) != len(cc.chunks) {
				t.Fatalf("chunk partition unstable: %d then %d chunks", len(cc.chunks), len(cc2.chunks))
			}
		})
	}
}

// TestSaveStateChunksSkipParity drives a bank with dirty tracking through
// a warm phase, cuts a parent save, mutates only a small PC range, and
// checks that the child save (a) skips the clean chunks and (b) when the
// skipped chunks are filled in from the parent, reconstructs the plain
// SaveState stream byte for byte — the exact resolution a delta-chain
// restore performs.
func TestSaveStateChunksSkipParity(t *testing.T) {
	var preds []Predictor
	for _, f := range KnownFactories() {
		preds = append(preds, f.New())
	}
	b := NewBank(preds...)
	b.SetDirtyTracking(true)
	pcs := testPCs(960)
	step := func(sub []uint64, rounds int) {
		vals := make([]uint64, len(sub))
		for r := 0; r < rounds; r++ {
			for j, pc := range sub {
				vals[j] = NonStride4[(uint64(r)+pc)%4] + pc%5
			}
			b.StepBatch(sub, vals)
		}
	}
	step(pcs, 8)

	parents := make([]*chunkCapture, len(preds))
	for i, p := range preds {
		parents[i] = captureChunks(t, p, nil, false)
	}
	parentPCs := b.PCCount()
	b.ResetDirty()

	// Mutate only the first ~5% of the (ascending) PC set: existing PCs
	// only, so membership — and with it the chunk partition — is stable.
	hot := pcs[:len(pcs)/20]
	step(hot, 4)
	if b.PCCount() != parentPCs {
		t.Fatalf("PC membership changed: %d -> %d", parentPCs, b.PCCount())
	}
	for _, pc := range hot {
		if !b.PCDirty(pc) {
			t.Fatalf("hot pc %#x not dirty", pc)
		}
	}
	if b.PCDirty(pcs[len(pcs)-1]) {
		t.Fatal("cold pc reported dirty")
	}

	for i, p := range preds {
		t.Run(p.Name(), func(t *testing.T) {
			child := captureChunks(t, p, b.PCDirty, true)
			parent := parents[i]
			if len(child.chunks) != len(parent.chunks) {
				t.Fatalf("chunk count changed: parent %d, child %d", len(parent.chunks), len(child.chunks))
			}
			skipped, encoded := 0, 0
			var got bytes.Buffer
			got.Write(child.header)
			for ci, data := range child.chunks {
				if data == nil {
					skipped++
					if child.firstPC[ci] != parent.firstPC[ci] || child.records[ci] != parent.records[ci] {
						t.Fatalf("skipped chunk %d misaligned with parent: pc %#x/%#x records %d/%d",
							ci, child.firstPC[ci], parent.firstPC[ci], child.records[ci], parent.records[ci])
					}
					got.Write(parent.chunks[ci])
				} else {
					encoded++
					got.Write(data)
				}
			}
			if skipped == 0 {
				t.Fatal("no chunks skipped despite 95% clean PCs")
			}
			if encoded > len(child.chunks)/2 {
				t.Fatalf("too few skips: %d of %d chunks encoded", encoded, len(child.chunks))
			}
			var want bytes.Buffer
			if err := p.SaveState(&want); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("reconstructed child differs from SaveState (%d vs %d bytes, %d skipped)",
					got.Len(), want.Len(), skipped)
			}
		})
	}
}

// TestBankDirtyTracking pins the bitset's semantics: PCs become dirty the
// first time a batch touches them after a reset, stay clean otherwise,
// and PCCount detects membership growth (the skip precondition).
func TestBankDirtyTracking(t *testing.T) {
	b := NewBank(NewLastValue())
	b.SetDirtyTracking(true)
	b.StepBatch([]uint64{10, 20, 30}, []uint64{1, 2, 3})
	for _, pc := range []uint64{10, 20, 30} {
		if !b.PCDirty(pc) {
			t.Fatalf("pc %d should be dirty", pc)
		}
	}
	if b.PCDirty(99) {
		t.Fatal("unseen pc reported dirty")
	}
	if b.PCCount() != 3 {
		t.Fatalf("PCCount = %d, want 3", b.PCCount())
	}
	b.ResetDirty()
	if b.PCDirty(10) {
		t.Fatal("pc 10 still dirty after ResetDirty")
	}
	b.StepBatch([]uint64{20}, []uint64{5})
	if !b.PCDirty(20) || b.PCDirty(10) {
		t.Fatalf("dirty after partial batch: pc20=%v pc10=%v", b.PCDirty(20), b.PCDirty(10))
	}
	if b.PCCount() != 3 {
		t.Fatalf("PCCount changed on existing pc: %d", b.PCCount())
	}
	b.StepBatch([]uint64{40}, []uint64{6})
	if b.PCCount() != 4 {
		t.Fatalf("PCCount = %d after new pc, want 4", b.PCCount())
	}
	b.SetDirtyTracking(false)
	if b.PCDirty(20) {
		t.Fatal("dirty bit survived disabling")
	}
	b.Reset()
	if b.PCCount() != 0 || b.PCDirty(20) {
		t.Fatal("Reset did not clear dirty state")
	}
}

// TestBankDirtyTrackingZeroAlloc is the CI gate for the tentpole's cost
// model: with dirty tracking enabled, the steady-state batch path —
// including the per-cut PCDirty probes and ResetDirty — allocates
// nothing. The bitset only grows when a PC is first inserted, which the
// warmup completes.
func TestBankDirtyTrackingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rns := NonStride4
	b := NewBank(
		NewLastValue(),
		NewStride2Delta(),
		NewFCM(3),
	)
	b.SetDirtyTracking(true)
	const batch = 1024
	pcs := make([]uint64, batch)
	vals := make([]uint64, batch)
	fill := func(base int) {
		for j := 0; j < batch; j++ {
			i := base + j
			pc := uint64(i % 48)
			pcs[j] = pc
			vals[j] = rns[(uint64(i/48)+pc)%4]
		}
	}
	for it := 0; it < 16; it++ {
		fill(it * batch)
		b.StepBatch(pcs, vals)
	}
	it := 16
	var dirtyCount int
	allocs := testing.AllocsPerRun(100, func() {
		fill(it * batch)
		b.StepBatch(pcs, vals)
		for pc := uint64(0); pc < 48; pc++ {
			if b.PCDirty(pc) {
				dirtyCount++
			}
		}
		b.ResetDirty()
		it++
	})
	if allocs != 0 {
		t.Fatalf("dirty-tracking steady state allocates %.1f allocs per batch", allocs)
	}
	if dirtyCount == 0 {
		t.Fatal("no PCs observed dirty")
	}
}

// TestChunkAnchorSpread sanity-checks the content-defined chunking: over
// a large PC population roughly 1/64 of PCs are anchors, so chunk sizes
// stay near the target without any stored boundaries.
func TestChunkAnchorSpread(t *testing.T) {
	anchors := 0
	const n = 1 << 16
	for i := 0; i < n; i++ {
		if chunkAnchor(uint64(i) * 8) {
			anchors++
		}
	}
	want := n / (chunkAnchorMask + 1)
	if anchors < want/2 || anchors > want*2 {
		t.Fatalf("anchor density off: %d of %d (want ~%d)", anchors, n, want)
	}
}
