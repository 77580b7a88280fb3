package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// registryPredictors returns a fresh instance of every registry predictor,
// in listing order.
func registryPredictors() []Predictor {
	var ps []Predictor
	for _, f := range KnownFactories() {
		ps = append(ps, f.New())
	}
	return ps
}

// TestBankOddRunLengths steps same-PC runs of 1, 7, 9 and 63 events, so
// the StepRun loops and their bulk paths start and stop at odd offsets,
// and holds every registry predictor to the per-event reference: hits,
// counts and saved state.
func TestBankOddRunLengths(t *testing.T) {
	for _, runLen := range []int{1, 7, 9, 63} {
		// Two PCs with interleave-proof content: one strided, one mixing
		// constants and period-2 repeats, each PC's run exactly runLen
		// events long, repeated across enough batches to cross the
		// warm/steady seam and the bulk fast paths.
		var pcs, vals []uint64
		for batch := 0; batch < 6; batch++ {
			for j := 0; j < runLen; j++ {
				pcs = append(pcs, 100)
				vals = append(vals, uint64(batch*runLen+j)*8)
				pcs = append(pcs, 200)
				if batch%2 == 0 {
					vals = append(vals, 42)
				} else {
					vals = append(vals, uint64(j%2))
				}
			}
		}
		batchEvents := 2 * runLen

		bank := NewBank(registryPredictors()...)
		ref := registryPredictors()
		refHits := make([]uint64, len(ref))
		for off := 0; off < len(pcs); off += batchEvents {
			bank.StepBatch(pcs[off:off+batchEvents], vals[off:off+batchEvents])
		}
		for j := range pcs {
			for i, p := range ref {
				refHits[i] += stepOne(p, pcs[j], vals[j])
			}
		}
		correct := bank.Correct()
		for i := range ref {
			if correct[i] != refHits[i] {
				t.Errorf("runLen %d predictor %d (%s): bank %d correct, reference %d",
					runLen, i, ref[i].Name(), correct[i], refHits[i])
			}
			var bb, rb bytes.Buffer
			if err := bank.Predictors()[i].SaveState(&bb); err != nil {
				t.Fatalf("runLen %d %s: bank SaveState: %v", runLen, ref[i].Name(), err)
			}
			if err := ref[i].SaveState(&rb); err != nil {
				t.Fatalf("runLen %d %s: ref SaveState: %v", runLen, ref[i].Name(), err)
			}
			if !bytes.Equal(bb.Bytes(), rb.Bytes()) {
				t.Errorf("runLen %d predictor %s: state bytes diverge (%d vs %d bytes)",
					runLen, ref[i].Name(), bb.Len(), rb.Len())
			}
		}
	}
}

// The control byte of one FuzzStepRunParity event: bits 0-1 pick one of
// four PCs, bits 2-3 pick the value and bit 4 ends the batch after the
// event. A fresh value is read from the next 8 bytes, little-endian.
const (
	fuzzRepeat = 0 << 2 // the PC's last value again
	fuzzStride = 1 << 2 // the PC's last value plus its last stride
	fuzzFresh  = 2 << 2 // 8 fresh bytes (3<<2 too)
	fuzzCut    = 1 << 4
)

// fuzzEvents decodes a fuzzed event stream (the control bytes above) into
// at most 4096 events on PCs 0x400, 0x408, 0x410 and 0x418, and the ends
// of its batches, the last at len(pcs).
func fuzzEvents(data []byte) (pcs, vals []uint64, ends []int) {
	var last, stride [4]uint64
	for len(data) > 0 && len(pcs) < 4096 {
		c := data[0]
		data = data[1:]
		pc := c & 3
		v := last[pc]
		switch c >> 2 & 3 {
		case 1:
			v += stride[pc]
		case 2, 3:
			var raw [8]byte
			data = data[copy(raw[:], data):]
			v = binary.LittleEndian.Uint64(raw[:])
		}
		stride[pc], last[pc] = v-last[pc], v
		pcs = append(pcs, 0x400+8*uint64(pc))
		vals = append(vals, v)
		if c&fuzzCut != 0 {
			ends = append(ends, len(pcs))
		}
	}
	return pcs, vals, append(ends, len(pcs))
}

// stepRunSeed encodes a constant run and a strided run of n events, each
// on its own PC and cut into its own batch, then both again interleaved in
// one batch.
func stepRunSeed(n int) []byte {
	var b []byte
	ctrl := 0
	ev := func(c byte, fresh ...uint64) {
		ctrl = len(b)
		b = append(b, c)
		for _, v := range fresh {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	cut := func() { b[ctrl] |= fuzzCut }
	ev(0|fuzzFresh, 5)
	for i := 0; i < n; i++ {
		ev(0 | fuzzRepeat)
	}
	cut()
	ev(1|fuzzFresh, 100)
	ev(1|fuzzFresh, 108)
	for i := 0; i < n; i++ {
		ev(1 | fuzzStride)
	}
	cut()
	for i := 0; i < n; i++ {
		ev(0 | fuzzRepeat)
		ev(1 | fuzzStride)
	}
	cut()
	return b
}

// FuzzStepRunParity steps a bank of every registry predictor through
// StepBatchCollect over a fuzzed stream, cut into fuzzed batches, and
// holds it to twin predictors stepped one event at a time through
// stepOne: each event's hit, the hit counts and the final SaveState bytes
// must match. The stream repeats values and strides often, so the StepRun
// loops' bulk paths start and stop anywhere in a run.
func FuzzStepRunParity(f *testing.F) {
	for _, n := range []int{1, 7, 8, 9, 63, 64} {
		f.Add(stepRunSeed(n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pcs, vals, ends := fuzzEvents(data)
		preds, twins := registryPredictors(), registryPredictors()
		b := NewBank(preds...)
		counts := make([]uint64, len(preds))
		want := make([]uint64, len(preds))
		bits := make([][]uint64, len(preds))
		for i := range bits {
			bits[i] = make([]uint64, (len(pcs)+63)/64)
		}
		start := 0
		for _, end := range ends {
			if end == start {
				continue
			}
			b.StepBatchCollect(pcs[start:end], vals[start:end], counts, bits)
			for j := start; j < end; j++ {
				k := j - start
				for i, tw := range twins {
					hit := stepOne(tw, pcs[j], vals[j])
					if got := bits[i][k>>6] >> (k & 63) & 1; got != hit {
						t.Fatalf("%s event %d (pc %#x, value %#x): bank hit %d, per event %d",
							tw.Name(), j, pcs[j], vals[j], got, hit)
					}
					want[i] += hit
				}
			}
			start = end
		}
		correct := b.Correct()
		for i, tw := range twins {
			if counts[i] != want[i] || correct[i] != want[i] {
				t.Fatalf("%s: bank collected %d and counted %d hits, per event %d",
					tw.Name(), counts[i], correct[i], want[i])
			}
			if !bytes.Equal(saveBytes(t, preds[i]), saveBytes(t, tw)) {
				t.Fatalf("%s: SaveState diverged from the per-event twin", tw.Name())
			}
		}
	})
}

// FuzzLoadedStepParity steps predictors from loaded and from applied
// state. The fuzzed state bytes go to every registry predictor through
// LoadState into a fresh instance and through ApplyDelta into another:
// a full state is the delta from the empty state, so both must accept or
// both reject it, and when they accept, save the same bytes. A state
// that loads is loaded into two instances, and one that applies as a
// delta onto an instance holding what the seed stream trains (loaded
// from its save) is applied onto two such instances; each pair then
// steps the same events, one through StepRun, a call per same-PC run of
// each batch, the other event by event (stepOne). The stream starts, at
// every PC an FCM of the pair
// holds, with a constant stretch of the PC's newest history value, so
// the constant-stretch path runs on the loaded counts; the fuzzed events
// follow. Each event's hit and the re-saved state bytes must match. The
// seeds are a trained FCM(3) state; a state whose context lists a value
// twice, which a load must reject; and two FCM(1) states that the load
// and the apply must both reject: one whose second PC delta wraps past
// 2^64 to a smaller PC, and one that lists an order-1 context twice.
func FuzzLoadedStepParity(f *testing.F) {
	// trained holds each registry predictor's state after the seed
	// stream; loading it gives an instance trained on that stream.
	trained := make(map[string][]byte)
	for _, fac := range KnownFactories() {
		p := fac.New()
		for i, ev := range trainStream(400) {
			p.Update(0x400+ev.PC%32, ev.Value+uint64(i%3))
		}
		trained[fac.Name] = saveBytes(f, p)
	}
	train := func(fac NamedFactory) Predictor {
		p := fac.New()
		if err := p.LoadState(bytes.NewReader(trained[fac.Name])); err != nil {
			f.Fatal(err)
		}
		return p
	}
	fcm1, _ := FactoryByName("fcm1")
	f.Add(trained["fcm3"], stepRunSeed(9))
	f.Add(fcm1RunState([]uint64{9, 9}, []uint64{1, 3}, 1), stepRunSeed(9))
	f.Add(wrappedPCState(f, fcm1), stepRunSeed(9))
	f.Add(fcm1State(1, 1), stepRunSeed(9))
	f.Fuzz(func(t *testing.T, state, events []byte) {
		for _, fac := range KnownFactories() {
			runner, twin, applied := fac.New(), fac.New(), fac.New()
			lerr := runner.LoadState(bytes.NewReader(state))
			_, aerr := applied.ApplyDelta(bytes.NewReader(state))
			if (lerr == nil) != (aerr == nil) {
				t.Fatalf("%s: LoadState says %v, ApplyDelta into a fresh instance %v", fac.Name, lerr, aerr)
			}
			if lerr == nil {
				if err := twin.LoadState(bytes.NewReader(state)); err != nil {
					t.Fatalf("%s: the second load of one state failed: %v", fac.Name, err)
				}
				if !bytes.Equal(saveBytes(t, applied), saveBytes(t, runner)) {
					t.Fatalf("%s: the state applied to a fresh instance saves differently from the loaded one", fac.Name)
				}
				stepParity(t, fac.Name, runner, twin, events)
			}
			runner = train(fac)
			if _, err := runner.ApplyDelta(bytes.NewReader(state)); err != nil {
				continue
			}
			twin = train(fac)
			if _, err := twin.ApplyDelta(bytes.NewReader(state)); err != nil {
				t.Fatalf("%s: the second apply of one delta failed: %v", fac.Name, err)
			}
			stepParity(t, fac.Name+" (trained, then the state applied)", runner, twin, events)
		}
	})
}

// stepParity steps runner through StepRun and twin, which holds the same
// state, event by event over the fuzzed events, after a constant stretch
// at every PC an FCM runner holds (FuzzLoadedStepParity), and fails on
// the first event whose hits differ or when the re-saved states differ.
func stepParity(t *testing.T, name string, runner, twin Predictor, events []byte) {
	t.Helper()
	var pcs, vals []uint64
	var ends []int
	if p, ok := runner.(*FCM); ok {
		for i := range p.pcs {
			s := &p.pcs[i]
			if s.n == 0 {
				continue
			}
			for range p.order + 4 {
				pcs = append(pcs, s.pc)
				vals = append(vals, s.hist[s.n-1])
			}
			ends = append(ends, len(pcs))
		}
	}
	fpcs, fvals, fends := fuzzEvents(events)
	pcs, vals = append(pcs, fpcs...), append(vals, fvals...)
	for _, e := range fends {
		ends = append(ends, len(pcs)-len(fpcs)+e)
	}
	hits := make([]byte, len(pcs))
	start := 0
	for _, end := range ends {
		for j := start; j < end; {
			k := j + 1
			for k < end && pcs[k] == pcs[j] {
				k++
			}
			runner.StepRun(pcs[j], vals[j:k], hits[j:k])
			j = k
		}
		start = end
	}
	for j := range pcs {
		if hit := stepOne(twin, pcs[j], vals[j]); uint64(hits[j]) != hit {
			t.Fatalf("%s event %d (pc %#x, value %#x): StepRun hit %d, per event %d",
				name, j, pcs[j], vals[j], hits[j], hit)
		}
	}
	if !bytes.Equal(saveBytes(t, runner), saveBytes(t, twin)) {
		t.Fatalf("%s: SaveState after StepRun diverged from the per-event twin", name)
	}
}
