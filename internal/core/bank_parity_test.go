package core

import (
	"bytes"
	"fmt"
	"testing"
)

// This file pins the batch execution layer to the per-event reference:
// for every registry predictor, a Bank stepping the stream in batches —
// across batch sizes including degenerate ones — must agree with a
// Predict/Update loop on every individual prediction (the per-event
// correctness bits), on the hit counts, and byte for byte on SaveState
// output. The same technique as fcm_parity_test.go, one level up: the
// kernels may regroup and fuse, but nothing observable may change.

// perEventRef steps one predictor over a stream the pre-batch way,
// recording per-event correctness.
func perEventRef(p Predictor, evs []struct{ PC, Value uint64 }) (bits []bool, correct uint64) {
	bits = make([]bool, len(evs))
	for i, ev := range evs {
		pred, ok := p.Predict(ev.PC)
		if ok && pred == ev.Value {
			bits[i] = true
			correct++
		}
		p.Update(ev.PC, ev.Value)
	}
	return bits, correct
}

// batchParityStream widens trainStream with long same-PC stretches so
// grouped runs are exercised at length, not just interleaved.
func batchParityStream(n int) []struct{ PC, Value uint64 } {
	evs := trainStream(n)
	for i := 0; i < n/4; i++ {
		pc := uint64(1000 + 8*(i/97)) // ~97-event same-PC stretches
		evs = append(evs, struct{ PC, Value uint64 }{PC: pc, Value: uint64(i % 5)})
	}
	return evs
}

func TestBankMatchesPerEventReference(t *testing.T) {
	evs := batchParityStream(8000)
	for _, fac := range KnownFactories() {
		for _, batch := range []int{1, 7, 256, 4096, len(evs)} {
			t.Run(fmt.Sprintf("%s/batch%d", fac.Name, batch), func(t *testing.T) {
				ref := fac.New()
				refBits, refCorrect := perEventRef(ref, evs)

				p := fac.New()
				b := NewBank(p)
				gotBits := make([]bool, len(evs))
				var counts [1]uint64
				pcs := make([]uint64, batch)
				vals := make([]uint64, batch)
				words := make([]uint64, (batch+63)/64)
				bitsArg := [][]uint64{words}
				for off := 0; off < len(evs); off += batch {
					end := off + batch
					if end > len(evs) {
						end = len(evs)
					}
					m := end - off
					for j := 0; j < m; j++ {
						pcs[j] = evs[off+j].PC
						vals[j] = evs[off+j].Value
					}
					b.StepBatchCollect(pcs[:m], vals[:m], counts[:], bitsArg)
					for j := 0; j < m; j++ {
						gotBits[off+j] = words[j>>6]&(1<<(uint(j)&63)) != 0
					}
				}
				for i := range refBits {
					if gotBits[i] != refBits[i] {
						t.Fatalf("event %d (pc=%#x): batch path correct=%v, per-event %v",
							i, evs[i].PC, gotBits[i], refBits[i])
					}
				}
				if counts[0] != refCorrect || b.correct[0] != refCorrect {
					t.Fatalf("hit counts: batch collected %d, bank %d, per-event %d",
						counts[0], b.correct[0], refCorrect)
				}
				if b.Events() != uint64(len(evs)) {
					t.Fatalf("bank stepped %d events, want %d", b.Events(), len(evs))
				}
				if got, want := saveBytes(t, p), saveBytes(t, ref); !bytes.Equal(got, want) {
					t.Fatalf("SaveState diverged: batch path %d bytes, per-event %d", len(got), len(want))
				}
			})
		}
	}
}

// TestStepBankMatchesPerEventReference pins the per-event wrapper (the
// edge the replay tools use) to the same reference.
func TestStepBankMatchesPerEventReference(t *testing.T) {
	evs := batchParityStream(4000)
	var names []string
	var refs, via []Predictor
	for _, fac := range KnownFactories() {
		names = append(names, fac.Name)
		refs = append(refs, fac.New())
		via = append(via, fac.New())
	}
	correct := make([]uint64, len(via))
	refCorrect := make([]uint64, len(refs))
	for _, ev := range evs {
		StepBank(via, correct, ev.PC, ev.Value)
		for i, p := range refs {
			pred, ok := p.Predict(ev.PC)
			if ok && pred == ev.Value {
				refCorrect[i]++
			}
			p.Update(ev.PC, ev.Value)
		}
	}
	for i := range refs {
		if correct[i] != refCorrect[i] {
			t.Errorf("%s: StepBank tallied %d, per-event %d", names[i], correct[i], refCorrect[i])
		}
		if got, want := saveBytes(t, via[i]), saveBytes(t, refs[i]); !bytes.Equal(got, want) {
			t.Errorf("%s: StepBank state diverged from per-event", names[i])
		}
	}
}

// TestRunWrappersMatchPerEvent pins the Run/RunSequence wrappers (now
// thin shims over the batch path) to the pre-batch loop they replaced.
func TestRunWrappersMatchPerEvent(t *testing.T) {
	evs := batchParityStream(6000)
	pcs := make([]uint64, len(evs))
	vals := make([]uint64, len(evs))
	for i, ev := range evs {
		pcs[i] = ev.PC
		vals[i] = ev.Value
	}
	for _, fac := range KnownFactories() {
		t.Run(fac.Name, func(t *testing.T) {
			ref := fac.New()
			var want Accuracy
			for i := range evs {
				pred, ok := ref.Predict(pcs[i])
				want.Observe(ok && pred == vals[i])
				ref.Update(pcs[i], vals[i])
			}
			if got := Run(fac.New(), pcs, vals); got != want {
				t.Errorf("Run = %+v, per-event %+v", got, want)
			}

			seq := fac.New()
			var wantSeq Accuracy
			for _, v := range vals[:5000] {
				pred, ok := seq.Predict(0)
				wantSeq.Observe(ok && pred == v)
				seq.Update(0, v)
			}
			if got := RunSequence(fac.New(), vals[:5000]); got != wantSeq {
				t.Errorf("RunSequence = %+v, per-event %+v", got, wantSeq)
			}
		})
	}
}

// TestBankMultiPredictorAndReset checks correct-counter bookkeeping over
// a bank of several predictors stepped in one StepBatch, and that Reset
// produces a bank indistinguishable from a fresh one.
func TestBankMultiPredictorAndReset(t *testing.T) {
	evs := batchParityStream(3000)
	preds := []Predictor{NewLastValue(), NewFCM(3)}
	refs := []Predictor{NewLastValue(), NewFCM(3)}
	b := NewBank(preds...)

	run := func() {
		pcs := make([]uint64, 0, 512)
		vals := make([]uint64, 0, 512)
		for off := 0; off < len(evs); off += 512 {
			end := off + 512
			if end > len(evs) {
				end = len(evs)
			}
			pcs, vals = pcs[:0], vals[:0]
			for _, ev := range evs[off:end] {
				pcs = append(pcs, ev.PC)
				vals = append(vals, ev.Value)
			}
			b.StepBatch(pcs, vals)
		}
	}
	run()
	refCorrect := make([]uint64, len(refs))
	for _, ev := range evs {
		StepBank(refs, refCorrect, ev.PC, ev.Value)
	}
	for i := range refs {
		if b.correct[i] != refCorrect[i] {
			t.Errorf("predictor %d (%s): bank %d correct, reference %d",
				i, preds[i].Name(), b.correct[i], refCorrect[i])
		}
	}

	b.Reset()
	if b.Events() != 0 {
		t.Fatalf("events after Reset = %d", b.Events())
	}
	run()
	for i := range refs {
		if b.correct[i] != refCorrect[i] {
			t.Errorf("after Reset, predictor %d (%s): bank %d correct, want %d",
				i, preds[i].Name(), b.correct[i], refCorrect[i])
		}
	}
}
