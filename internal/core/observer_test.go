package core

import (
	"testing"
)

// recordingObserver reassembles, per PC, the value subsequence and each
// predictor's hit bytes as delivered run by run.
type recordingObserver struct {
	vals map[uint64][]uint64
	hits map[uint64][][]byte // per PC: one hit slice per predictor
	runs int
}

func newRecordingObserver(npred int) *recordingObserver {
	return &recordingObserver{
		vals: make(map[uint64][]uint64),
		hits: make(map[uint64][][]byte),
	}
}

func (o *recordingObserver) ObserveRun(pc uint64, values []uint64, hits [][]byte) {
	o.runs++
	o.vals[pc] = append(o.vals[pc], values...)
	rows := o.hits[pc]
	if rows == nil {
		rows = make([][]byte, len(hits))
		o.hits[pc] = rows
	}
	for i, h := range hits {
		if len(h) != len(values) {
			panic("observer: hit row length != run length")
		}
		rows[i] = append(rows[i], h...)
	}
}

// observerStream builds a mixed stream over a few PCs: strides, constants
// and an irregular repeat, interleaved so runs are short and frequent.
func observerStream(n int) (pcs, vals []uint64) {
	pcs = make([]uint64, n)
	vals = make([]uint64, n)
	for i := 0; i < n; i++ {
		pc := uint64(i % 7)
		pcs[i] = pc
		switch pc % 3 {
		case 0:
			vals[i] = uint64(i) * 4
		case 1:
			vals[i] = 99
		default:
			vals[i] = NonStride4[i%4]
		}
	}
	return pcs, vals
}

// TestBankObserverParity pins three properties of the observer tap: it
// does not change any predictor's tallies, it sees every PC's exact value
// subsequence in stream order, and its hit bytes agree event-for-event
// with an independent per-event reference run.
func TestBankObserverParity(t *testing.T) {
	mk := func() []Predictor {
		return []Predictor{
			NewLastValue(),
			NewStride2Delta(),
			NewFCM(2),
		}
	}
	pcs, vals := observerStream(4096)

	plain := NewBank(mk()...)
	observed := NewBank(mk()...)
	obs := newRecordingObserver(3)
	observed.SetObserver(obs)

	for _, batch := range []int{1, 3, 64, 1000} {
		for off := 0; off < len(pcs); off += batch {
			end := min(off+batch, len(pcs))
			plain.StepBatch(pcs[off:end], vals[off:end])
			observed.StepBatch(pcs[off:end], vals[off:end])
		}
	}

	pc, oc := plain.Correct(), observed.Correct()
	for i := range pc {
		if pc[i] != oc[i] {
			t.Errorf("predictor %d: observer changed tally: %d vs %d", i, oc[i], pc[i])
		}
	}
	if obs.runs == 0 {
		t.Fatal("observer saw no runs")
	}

	// Per-event reference: fresh predictors stepped one event at a time,
	// accumulating per-PC subsequences and hit bytes.
	refPreds := mk()
	refVals := make(map[uint64][]uint64)
	refHits := make(map[uint64][][]byte)
	for r := 0; r < 4; r++ { // same four passes as above
		for j := range pcs {
			pcv, v := pcs[j], vals[j]
			refVals[pcv] = append(refVals[pcv], v)
			rows := refHits[pcv]
			if rows == nil {
				rows = make([][]byte, len(refPreds))
				refHits[pcv] = rows
			}
			for i, p := range refPreds {
				rows[i] = append(rows[i], byte(stepOne(p, pcv, v)))
			}
		}
	}
	for pcv, want := range refVals {
		got := obs.vals[pcv]
		if len(got) != len(want) {
			t.Fatalf("pc %d: observer saw %d values, want %d", pcv, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("pc %d event %d: observer value %d, want %d", pcv, k, got[k], want[k])
			}
		}
		for i := range refPreds {
			gh, wh := obs.hits[pcv][i], refHits[pcv][i]
			for k := range wh {
				if gh[k] != wh[k] {
					t.Fatalf("pc %d pred %d event %d: observer hit %d, want %d", pcv, i, k, gh[k], wh[k])
				}
			}
		}
	}
}
