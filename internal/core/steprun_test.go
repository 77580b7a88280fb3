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
		var pcs, vals []uint64
		var ends []int
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
		ends = append(ends, len(pcs))

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
