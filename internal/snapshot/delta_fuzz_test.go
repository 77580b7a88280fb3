package snapshot

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
)

// fuzzChainPreds is the registry bank the chain fuzz cuts: a per-PC
// predictor of each record shape plus an FCM.
var fuzzChainPreds = []string{"l", "s2", "fcm2"}

// fuzzEvents derives an event stream from fuzz input: each byte pair is
// one value at one of 24 PCs, repeated into a constant stretch of up to
// four events so StepRun's bulk path takes part.
func fuzzEvents(data []byte) (pcs, vals []uint64) {
	for i := 0; i+1 < len(data); i += 2 {
		pc := uint64(data[i]%24) * 4
		v := uint64(data[i+1] & 0x0f)
		if data[i+1]&0x80 != 0 {
			v = uint64(data[i]) << 40 // a value no context has seen
		}
		for r := 0; r <= int(data[i+1]>>4)&3; r++ {
			pcs, vals = append(pcs, pc), append(vals, v)
		}
	}
	return pcs, vals
}

// FuzzDeltaChainRoundTrip covers the checkpoint container with record
// deltas from both sides. Round trip: traffic derived from the input,
// cut as a root and one to three deltas through a registry bank, must
// resolve to exactly the bytes of a forced full save of the same state.
// Robustness: the input itself, read as a checkpoint file or fed to every
// predictor's ApplyDelta (empty or loaded), must fail cleanly or apply —
// never panic — and an apply may allocate only in proportion to the
// input's size.
func FuzzDeltaChainRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0xA7, 0x13, 0x40}, 160))
	var d bytes.Buffer
	if _, err := core.NewFCM(2).SaveDelta(&d); err != nil {
		f.Fatal(err)
	}
	f.Add(append(d.Bytes(), 2, 0, 9, 9, 9, 1, 0, 2, 0, 1, 2, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		lb := newLiveBank(t, 2, fuzzChainPreds...)
		pcs, vals := fuzzEvents(data)
		links := 1
		if len(data) > 0 {
			links += int(data[0] % 3)
		}
		var tip string
		var tipSnap *Snapshot
		var tipFull [][][]byte
		for cut := 0; cut <= links; cut++ {
			lo, hi := len(pcs)*cut/(links+1), len(pcs)*(cut+1)/(links+1)
			lb.step(pcs[lo:hi], vals[lo:hi])
			tip, tipSnap, tipFull = lb.cut(t, dir, cut > 0)
		}
		got, info, err := ResolveChain(tip)
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		if info.Depth != links || len(info.Files) != links+1 {
			t.Fatalf("chain info = %+v, want depth %d", info, links)
		}
		checkState(t, got, tipSnap, tipFull)

		DecodeBytes(append([]byte(Magic), data...))
		for _, name := range fuzzChainPreds {
			fac, _ := core.FactoryByName(name)
			loaded := fac.New()
			if err := loaded.LoadState(bytes.NewReader(tipFull[0][indexOf(name)])); err != nil {
				t.Fatalf("%s: loading the tip: %v", name, err)
			}
			loaded.ApplyDelta(bytes.NewReader(data))

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fac.New().ApplyDelta(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if grew, limit := after.TotalAlloc-before.TotalAlloc, 1<<20+256*uint64(len(data)); grew > limit {
				t.Fatalf("%s: applying %d bytes allocated %d bytes (limit %d)", name, len(data), grew, limit)
			}
		}
	})
}

// indexOf returns name's position in fuzzChainPreds.
func indexOf(name string) int {
	for i, n := range fuzzChainPreds {
		if n == name {
			return i
		}
	}
	return -1
}
