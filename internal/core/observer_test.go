package core

import (
	"slices"
	"testing"
)

// recordingObserver reassembles, per PC, the value subsequence as
// delivered run by run, and keeps each run's length and per-predictor hit
// counts.
type recordingObserver struct {
	vals map[uint64][]uint64
	runs map[uint64][]observedRun
	n    int
}

// observedRun is one delivered run: its length and each predictor's hit
// count, copied out of the bank's reused arena.
type observedRun struct {
	len  int
	hits []uint64
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{
		vals: make(map[uint64][]uint64),
		runs: make(map[uint64][]observedRun),
	}
}

func (o *recordingObserver) Bind([]Predictor) {}

func (o *recordingObserver) ObserveRun(pc uint64, values []uint64, hits []uint64) {
	o.n++
	o.vals[pc] = append(o.vals[pc], values...)
	o.runs[pc] = append(o.runs[pc], observedRun{len(values), slices.Clone(hits)})
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
// subsequence in stream order, and each run's hit count from each
// predictor equals an independent per-event reference run's hits summed
// over the same events.
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
	obs := newRecordingObserver()
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
	if obs.n == 0 {
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
		at := 0
		for r, run := range obs.runs[pcv] {
			if len(run.hits) != len(refPreds) {
				t.Fatalf("pc %d run %d: %d hit counts, want one per predictor (%d)", pcv, r, len(run.hits), len(refPreds))
			}
			for i, got := range run.hits {
				var want uint64
				for _, h := range refHits[pcv][i][at : at+run.len] {
					want += uint64(h)
				}
				if got != want {
					t.Fatalf("pc %d run %d (events %d..%d) pred %d: observer counted %d hits, per event %d",
						pcv, r, at, at+run.len, i, got, want)
				}
			}
			at += run.len
		}
	}
}
