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

// saveDelta cuts one delta of p, as a checkpoint cut does.
func saveDelta(t *testing.T, p Predictor) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.SaveDelta(&buf)
	if err != nil {
		t.Fatalf("%s SaveDelta: %v", p.Name(), err)
	}
	return buf.Bytes(), n
}

// TestDeltaApplyParity is the record-delta contract for every registry
// predictor: random traffic through a bank, cut as a root SaveState and
// then several deltas, must rebuild from LoadState(root) plus ApplyDelta
// of each delta to exactly the live SaveState bytes at every cut, and the
// rebuilt predictor must then predict identically.
func TestDeltaApplyParity(t *testing.T) {
	for _, f := range KnownFactories() {
		t.Run(f.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			live := f.New()
			b := NewBank(live)
			pcs, vals := deltaTraffic(rng, 0, 64, 6000)
			b.StepBatch(pcs, vals)
			root := saveBytes(t, live)

			var deltas, want [][]byte
			var records []int
			for cut := 0; cut < 5; cut++ {
				// Each interval revisits old PCs and reaches new ones.
				pcs, vals := deltaTraffic(rng, 16*cut, 32+16*cut, 500+rng.Intn(3000))
				for off := 0; off < len(pcs); off += 700 {
					end := min(off+700, len(pcs))
					b.StepBatch(pcs[off:end], vals[off:end])
				}
				d, n := saveDelta(t, live)
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
			pcs, vals := deltaTraffic(rng, 0, 960, 40000)
			b.StepBatch(pcs, vals)
			root := saveBytes(t, live)

			b.StepBatch([]uint64{12}, []uint64{12345}) // a noisy PC with many contexts
			one, n1 := saveDelta(t, live)
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
			d, n := saveDelta(t, live)
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
			idle, m := saveDelta(t, live)
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
			if _, err := p.SaveDelta(&buf); err != nil {
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
	if _, err := NewFCM(2).SaveDelta(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFCM(3).ApplyDelta(&buf); err == nil {
		t.Fatal("an FCM(2) delta applied to an FCM(3)")
	}
}

// TestPredictorsKeepOwnChangeMarks holds every registry predictor to the
// marks it keeps itself, with no Bank around it: the events Update
// applies are carried by the next SaveDelta and no other PC is; after a
// SaveState the next SaveDelta is empty; and LoadState and ApplyDelta
// leave nothing for a delta to carry.
func TestPredictorsKeepOwnChangeMarks(t *testing.T) {
	for _, f := range KnownFactories() {
		t.Run(f.Name, func(t *testing.T) {
			var empty bytes.Buffer
			if _, err := f.New().SaveDelta(&empty); err != nil {
				t.Fatal(err)
			}
			// carriedPCs applies delta to a fresh predictor and returns
			// the PCs it holds afterwards: exactly the PCs delta carries.
			carriedPCs := func(delta []byte) map[uint64]int {
				t.Helper()
				q := f.New()
				if _, err := q.ApplyDelta(bytes.NewReader(delta)); err != nil {
					t.Fatal(err)
				}
				return q.PCEntries()
			}
			rng := rand.New(rand.NewSource(13))
			live := f.New()
			pcs, vals := deltaTraffic(rng, 0, 64, 4000)
			for i := range pcs {
				live.Update(pcs[i], vals[i])
			}
			root := saveBytes(t, live)
			if d, n := saveDelta(t, live); n != 0 || !bytes.Equal(d, empty.Bytes()) {
				t.Fatalf("the delta after a SaveState carries %d records in %d bytes, want an empty one", n, len(d))
			}

			// Updates on five PCs, two of them new, and one update on a
			// sixth PC never seen before.
			stepped := map[uint64]bool{408: true}
			for i := 0; i < 300; i++ {
				pc := []uint64{8, 20, 44, 400, 404}[i%5]
				live.Update(pc, uint64(rng.Intn(6)))
				stepped[pc] = true
			}
			live.Update(408, 9)
			d, n := saveDelta(t, live)
			if n == 0 {
				t.Fatal("the delta after 300 updates carries no record")
			}
			got := carriedPCs(d)
			if len(got) != len(stepped) {
				t.Fatalf("the delta carries PCs %v, want exactly %v", got, stepped)
			}
			for pc := range got {
				if !stepped[pc] {
					t.Fatalf("the delta carries PC %d, which no update stepped (carried %v)", pc, got)
				}
			}
			if again, m := saveDelta(t, live); m != 0 || !bytes.Equal(again, empty.Bytes()) {
				t.Fatalf("a second delta with no update between carries %d records", m)
			}

			rebuilt := f.New()
			if err := rebuilt.LoadState(bytes.NewReader(root)); err != nil {
				t.Fatal(err)
			}
			if d, n := saveDelta(t, rebuilt); n != 0 || !bytes.Equal(d, empty.Bytes()) {
				t.Fatalf("LoadState left marks: the next delta carries %d records in %d bytes", n, len(d))
			}
			if _, err := rebuilt.ApplyDelta(bytes.NewReader(d)); err != nil {
				t.Fatal(err)
			}
			if d, n := saveDelta(t, rebuilt); n != 0 || !bytes.Equal(d, empty.Bytes()) {
				t.Fatalf("ApplyDelta left marks: the next delta carries %d records in %d bytes", n, len(d))
			}
			if !bytes.Equal(saveBytes(t, rebuilt), saveBytes(t, live)) {
				t.Fatal("root plus the Update-only delta differs from the live state")
			}
		})
	}
}
