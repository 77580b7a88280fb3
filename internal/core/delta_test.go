package core

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// deltaTraffic returns n events over the PCs in [0, pcs) (times 4) mixing
// the sequence classes that touch an FCM differently: strides that create
// a context per event, constant stretches that take StepRun's bulk path,
// short periodic patterns that re-count existing contexts, and noise.
func deltaTraffic(rng *rand.Rand, base, pcs, n int) (pc, val []uint64) {
	pc, val = make([]uint64, n), make([]uint64, n)
	for i := range pc {
		p := uint64(base+rng.Intn(pcs)) * 4
		pc[i] = p
		switch p % 16 {
		case 0:
			val[i] = uint64(rng.Intn(1<<20)) * 8
		case 4:
			val[i] = 7
		case 8:
			val[i] = []uint64{3, 1, 4, 1, 5}[rng.Intn(5)]
		default:
			val[i] = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	return pc, val
}

// saveDelta cuts one delta of p through the bank's dirty set and resets
// the set, as a checkpoint cut does.
func saveDelta(t *testing.T, b *Bank, p Predictor) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.SaveDelta(&buf, b.PCDirty)
	if err != nil {
		t.Fatalf("%s SaveDelta: %v", p.Name(), err)
	}
	b.ResetDirty()
	return buf.Bytes(), n
}

// TestDeltaApplyParity is the record-delta contract for every registry
// predictor: random traffic through a dirty-tracking bank, cut as a root
// SaveState and then several deltas, must rebuild from LoadState(root)
// plus ApplyDelta of each delta to exactly the live SaveState bytes at
// every cut, and the rebuilt predictor must then predict identically.
func TestDeltaApplyParity(t *testing.T) {
	for _, f := range KnownFactories() {
		t.Run(f.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			live := f.New()
			b := NewBank(live)
			b.SetDirtyTracking(true)
			pcs, vals := deltaTraffic(rng, 0, 64, 6000)
			b.StepBatch(pcs, vals)
			root := saveBytes(t, live)
			b.ResetDirty()

			var deltas, want [][]byte
			var records []int
			for cut := 0; cut < 5; cut++ {
				// Each interval revisits old PCs and reaches new ones.
				pcs, vals := deltaTraffic(rng, 16*cut, 32+16*cut, 500+rng.Intn(3000))
				for off := 0; off < len(pcs); off += 700 {
					end := min(off+700, len(pcs))
					b.StepBatch(pcs[off:end], vals[off:end])
				}
				d, n := saveDelta(t, b, live)
				deltas, records = append(deltas, d), append(records, n)
				want = append(want, saveBytes(t, live))
			}

			got := f.New()
			if err := got.LoadState(bytes.NewReader(root)); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			for i, d := range deltas {
				n, err := got.ApplyDelta(bytes.NewReader(d))
				if err != nil {
					t.Fatalf("ApplyDelta %d: %v", i, err)
				}
				if n != records[i] {
					t.Fatalf("delta %d: applied %d records, saved %d", i, n, records[i])
				}
				if g := saveBytes(t, got); !bytes.Equal(g, want[i]) {
					t.Fatalf("after delta %d: rebuilt state %d bytes differs from live %d", i, len(g), len(want[i]))
				}
			}
			pcs, vals = deltaTraffic(rng, 0, 128, 3000)
			for i := range pcs {
				lp, lok := live.Predict(pcs[i])
				gp, gok := got.Predict(pcs[i])
				if lp != gp || lok != gok {
					t.Fatalf("event %d: live predicts %d/%v, rebuilt %d/%v", i, lp, lok, gp, gok)
				}
				live.Update(pcs[i], vals[i])
				got.Update(pcs[i], vals[i])
			}
		})
	}
}

// TestSaveStateChunksSkipParity checks that a delta carries only what
// changed since the previous save of either kind and still rebuilds the
// state exactly: one event after a SaveState yields at most one entry per
// FCM order (one record otherwise); then traffic on ~5% of the PCs yields
// a delta holding only those PCs' entries (every one of them, for the
// per-PC predictors), far smaller than the state; a delta with no traffic
// since the last save carries nothing; and all of them apply back to the
// live state. The name dates from chunked saves, whose deltas skipped
// clean chunks of PCs; the skip is now per record.
func TestSaveStateChunksSkipParity(t *testing.T) {
	for _, f := range KnownFactories() {
		t.Run(f.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			live := f.New()
			b := NewBank(live)
			b.SetDirtyTracking(true)
			pcs, vals := deltaTraffic(rng, 0, 960, 40000)
			b.StepBatch(pcs, vals)
			root := saveBytes(t, live)
			b.ResetDirty()

			b.StepBatch([]uint64{12}, []uint64{12345}) // a noisy PC with many contexts
			one, n1 := saveDelta(t, b, live)
			maxOne := 1
			if fcm, ok := live.(*FCM); ok {
				maxOne = fcm.Order() + 1
			}
			if n1 == 0 || n1 > maxOne {
				t.Fatalf("a delta after one event carries %d records, want 1..%d", n1, maxOne)
			}

			hot := 48
			pcs, vals = deltaTraffic(rng, 0, hot, 2000)
			b.StepBatch(pcs, vals)
			d, n := saveDelta(t, b, live)
			perPC := live.PCEntries()
			hotEntries := 0
			for pc := uint64(0); pc < uint64(hot)*4; pc += 4 {
				hotEntries += perPC[pc]
			}
			_, total := live.TableEntries()
			if n == 0 || n > hotEntries {
				t.Fatalf("delta carries %d records; the %d hot PCs hold %d of %d entries", n, hot, hotEntries, total)
			}
			if _, isFCM := live.(*FCM); !isFCM && n != hot {
				t.Fatalf("delta carries %d records, want one per hot PC (%d)", n, hot)
			}
			if len(d)*4 > len(root) {
				t.Fatalf("delta is %d bytes, the state %d", len(d), len(root))
			}
			idle, m := saveDelta(t, b, live)
			if m != 0 {
				t.Fatalf("delta with no traffic carries %d records", m)
			}

			got := f.New()
			if err := got.LoadState(bytes.NewReader(root)); err != nil {
				t.Fatal(err)
			}
			for _, delta := range [][]byte{one, d, idle} {
				if _, err := got.ApplyDelta(bytes.NewReader(delta)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(saveBytes(t, got), saveBytes(t, live)) {
				t.Fatal("root plus deltas differs from the live state")
			}
		})
	}
}

// TestApplyDeltaRejectsCorrupt feeds every registry predictor truncated,
// padded and mismatched deltas: each must fail cleanly, never panic.
func TestApplyDeltaRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pcs, vals := deltaTraffic(rng, 0, 40, 3000)
	for _, f := range KnownFactories() {
		t.Run(f.Name, func(t *testing.T) {
			p := f.New()
			NewBank(p).StepBatch(pcs, vals)
			var buf bytes.Buffer
			if _, err := p.SaveDelta(&buf, nil); err != nil {
				t.Fatal(err)
			}
			d := buf.Bytes()
			for cut := 0; cut < len(d); cut += 1 + len(d)/200 {
				if _, err := f.New().ApplyDelta(bytes.NewReader(d[:cut])); err == nil {
					t.Fatalf("delta truncated to %d of %d bytes applied", cut, len(d))
				}
			}
			if _, err := f.New().ApplyDelta(bytes.NewReader(append(d[:len(d):len(d)], 0))); err == nil {
				t.Fatal("delta with a trailing byte applied")
			}
			if _, err := f.New().ApplyDelta(io.MultiReader(bytes.NewReader(d), bytes.NewReader(d))); err == nil {
				t.Fatal("two deltas back to back applied as one")
			}
		})
	}
	var buf bytes.Buffer
	if _, err := NewFCM(2).SaveDelta(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFCM(3).ApplyDelta(&buf); err == nil {
		t.Fatal("an FCM(2) delta applied to an FCM(3)")
	}
}

// TestBankDirtyTracking pins the bitset's semantics: PCs become dirty the
// first time a batch touches them after a reset and stay clean otherwise.
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
	b.ResetDirty()
	if b.PCDirty(10) {
		t.Fatal("pc 10 still dirty after ResetDirty")
	}
	b.StepBatch([]uint64{20}, []uint64{5})
	if !b.PCDirty(20) || b.PCDirty(10) {
		t.Fatalf("dirty after partial batch: pc20=%v pc10=%v", b.PCDirty(20), b.PCDirty(10))
	}
	b.StepBatch([]uint64{40}, []uint64{6})
	if !b.PCDirty(40) {
		t.Fatal("new pc 40 not dirty")
	}
	b.SetDirtyTracking(false)
	if b.PCDirty(20) {
		t.Fatal("dirty bit survived disabling")
	}
	b.Reset()
	if b.PCDirty(20) || b.PCDirty(40) {
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
