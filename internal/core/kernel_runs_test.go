package core

import (
	"bytes"
	"testing"
)

// TestBankOddRunLengths pins the counting-sort arena rounding: runs
// whose lengths are not multiples of the SWAR block width (1, 7, 9, 63
// events) must step bit-identically to the per-event reference — hits,
// counts and saved state — through every kernel-backed predictor.
func TestBankOddRunLengths(t *testing.T) {
	mk := func() []Predictor {
		return []Predictor{
			NewLastValue(),
			NewLastValueCounter(3, 1),
			NewLastValueConsecutive(2),
			NewStrideSimple(),
			NewStride2Delta(),
			NewStrideCounter(3, 1),
			NewFCM(3),
		}
	}
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

		bank := NewBank(mk()...)
		ref := mk()
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
