package predstat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seqclass"
)

// feed delivers a single-PC value stream to the tracker in runs of
// varying length, mimicking how core.Bank groups batches.
func feed(t *Tracker, pc uint64, values []uint64) {
	for off := 0; off < len(values); {
		n := 1 + (off*7)%13
		if off+n > len(values) {
			n = len(values) - off
		}
		t.ObserveRun(pc, values[off:off+n], nil)
		off += n
	}
}

// bruteForce computes the exact empirical order-o conditional entropy and
// ideal-predictor ceiling of a sequence with hash maps.
func bruteForce(values []uint64, order int) (entropyBits, ceiling float64) {
	type ctx struct{ a, b, c, d, e, f uint64 }
	mk := func(i int) ctx {
		var k ctx
		p := []*uint64{&k.a, &k.b, &k.c, &k.d, &k.e, &k.f}
		for j := 0; j < order; j++ {
			*p[j] = values[i-1-j] + 1 // +1 so "unused" zero fields can't alias
		}
		return k
	}
	ctxN := map[ctx]uint64{}
	pairN := map[ctx]map[uint64]uint64{}
	tot := uint64(0)
	for i := order; i < len(values); i++ {
		k := mk(i)
		ctxN[k]++
		if pairN[k] == nil {
			pairN[k] = map[uint64]uint64{}
		}
		pairN[k][values[i]]++
		tot++
	}
	if tot == 0 {
		return 0, 0
	}
	var sumC, sumV float64
	var sumMax uint64
	for k, nc := range ctxN {
		sumC += float64(nc) * math.Log2(float64(nc))
		mx := uint64(0)
		for _, n := range pairN[k] {
			sumV += float64(n) * math.Log2(float64(n))
			if n > mx {
				mx = n
			}
		}
		sumMax += mx
	}
	return (sumC - sumV) / float64(tot), float64(sumMax) / float64(tot)
}

// exactStream returns n values for one PC: an order-2 recurrence over
// 100 symbols broken by noise and by constant stretches, which the FCMs
// step in bulk. The PC sees more than 64 distinct values and more than
// 64 contexts at every order from 1 up.
func exactStream(rng *rand.Rand, n int) []uint64 {
	vals := make([]uint64, 0, n+40)
	a, b := uint64(0), uint64(1)
	for len(vals) < n {
		switch r := rng.Intn(20); {
		case r == 0:
			v := uint64(rng.Intn(100)) * 977
			for range 5 + rng.Intn(30) {
				vals = append(vals, v)
			}
		case r < 6:
			vals = append(vals, uint64(rng.Intn(100))*977)
		default:
			c := (a*7 + b*3 + 1) % 100
			vals = append(vals, c*977)
			a, b = b, c
		}
	}
	return vals[:n]
}

// TestStreamingEntropyExact pins the tracker's context ceilings and
// entropies to the exact empirical ones of each PC's stream (bruteForce).
// Banks of blended FCMs of orders 0 to 3, and of no-blend FCMs of orders
// 1 to 3, step four PCs whose streams hold more than 64 distinct values
// and contexts each, interleaved in uneven runs and batches. Every PC's
// order-k ceiling must equal the map reference's for each order the bank
// holds, and its entropy the reference's at the highest order.
func TestStreamingEntropyExact(t *testing.T) {
	for _, bankOf := range []func() []core.Predictor{
		func() []core.Predictor {
			return []core.Predictor{core.NewFCM(0), core.NewFCM(1), core.NewFCM(2), core.NewFCM(3)}
		},
		func() []core.Predictor {
			return []core.Predictor{core.NewFCMNoBlend(1), core.NewFCMNoBlend(2), core.NewFCMNoBlend(3)}
		},
	} {
		preds := bankOf()
		rng := rand.New(rand.NewSource(7))
		const npc, n = 4, 3000
		streams := make([][]uint64, npc)
		for i := range streams {
			streams[i] = exactStream(rng, n)
			distinct, ctxs := map[uint64]bool{}, map[[2]uint64]bool{}
			for j, v := range streams[i] {
				distinct[v] = true
				if j >= 2 {
					ctxs[[2]uint64{streams[i][j-2], streams[i][j-1]}] = true
				}
			}
			if len(distinct) <= 64 || len(ctxs) <= 64 {
				t.Fatalf("pc %d: %d values and %d order-2 contexts, want more than 64 of each", i, len(distinct), len(ctxs))
			}
		}
		var pcs, vals []uint64
		next := make([]int, npc)
		for len(pcs) < npc*n {
			i := rng.Intn(npc)
			k := min(next[i]+1+rng.Intn(40), n)
			for _, v := range streams[i][next[i]:k] {
				pcs, vals = append(pcs, uint64(0x100+4*i)), append(vals, v)
			}
			next[i] = k
		}
		bank := core.NewBank(preds...)
		tr := NewTracker(Config{MinEvents: 1})
		bank.SetObserver(tr)
		for off := 0; off < len(pcs); {
			end := min(off+1+rng.Intn(900), len(pcs))
			bank.StepBatch(pcs[off:end], vals[off:end])
			off = end
		}
		rep := tr.Report(npc)
		if rep.Reported != npc || len(rep.Hardest) != npc {
			t.Fatalf("%s: %d PCs reported, %d ranked, want %d", preds[0].Name(), rep.Reported, len(rep.Hardest), npc)
		}
		top := preds[len(preds)-1].(*core.FCM).Order()
		for _, pr := range rep.Hardest {
			values := streams[(pr.PC-0x100)/4]
			if pr.Events != n || pr.CeilEvents != uint64(n-top) {
				t.Errorf("pc %#x: %d events, ceilings over %d, want %d and %d", pr.PC, pr.Events, pr.CeilEvents, n, n-top)
			}
			if len(pr.CeilOrder) != len(preds) {
				t.Errorf("pc %#x: ceilings for orders %v, want one per FCM", pr.PC, pr.CeilOrder)
			}
			for _, p := range preds {
				order := p.(*core.FCM).Order()
				wantH, wantC := bruteForce(values, order)
				if got := pr.CeilOrder[order]; math.Abs(got-wantC) > 1e-9 {
					t.Errorf("%s pc %#x: order-%d ceiling %.12f, want %.12f", p.Name(), pr.PC, order, got, wantC)
				}
				if order == top && math.Abs(pr.EntropyBits-wantH) > 1e-9 {
					t.Errorf("%s pc %#x: entropy %.12f, want %.12f", p.Name(), pr.PC, pr.EntropyBits, wantH)
				}
			}
		}
	}
}

// TestLastValueStrideCeilings pins the oracle last-value and stride
// ceilings on hand-checkable sequences.
func TestLastValueStrideCeilings(t *testing.T) {
	tr := NewTracker(Config{MinEvents: 1})
	// 10 events: stride 1..8 then two repeats of 8.
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 8, 8}
	feed(tr, 1, vals)
	h, _ := tr.idx.Lookup(1)
	lv, st := tr.st[h].ceilings()
	// value==prev at the two trailing repeats: 2/9.
	if want := 2.0 / 9.0; math.Abs(lv-want) > 1e-12 {
		t.Errorf("last-value ceiling %.6f, want %.6f", lv, want)
	}
	// delta==prevDelta for deltas 2..7 (six) plus the final 0 after 0? deltas
	// are 1,1,1,1,1,1,1,0,0 → repeats at positions 2..7 (six) and the last 0: 7/8.
	if want := 7.0 / 8.0; math.Abs(st-want) > 1e-12 {
		t.Errorf("stride ceiling %.6f, want %.6f", st, want)
	}
}

// sameReport fails t unless got and want agree field by field, with
// floating-point fields within 1e-9: a merge sums them in another order.
// EntropyBits holds one unordered sample per PC, so both are compared
// sorted.
func sameReport(t *testing.T, got, want *Report) {
	t.Helper()
	slices.Sort(got.EntropyBits)
	slices.Sort(want.EntropyBits)
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		switch g.Kind() {
		case reflect.Float64:
			if math.Abs(g.Float()-w.Float()) > 1e-9 {
				t.Errorf("%s = %.12g, want %.12g", path, g.Float(), w.Float())
			}
		case reflect.Pointer:
			walk(path, g.Elem(), w.Elem())
		case reflect.Struct:
			for i := 0; i < g.NumField(); i++ {
				walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		case reflect.Slice:
			if g.Len() != w.Len() {
				t.Errorf("%s has %d entries, want %d", path, g.Len(), w.Len())
				return
			}
			for i := 0; i < g.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), g.Index(i), w.Index(i))
			}
		case reflect.Map:
			if g.Len() != w.Len() {
				t.Errorf("%s has %d keys, want %d", path, g.Len(), w.Len())
				return
			}
			for _, k := range w.MapKeys() {
				if !g.MapIndex(k).IsValid() {
					t.Errorf("%s lacks key %v", path, k)
					continue
				}
				walk(fmt.Sprintf("%s[%v]", path, k), g.MapIndex(k), w.MapIndex(k))
			}
		default:
			if g.Interface() != w.Interface() {
				t.Errorf("%s = %v, want %v", path, g.Interface(), w.Interface())
			}
		}
	}
	walk("Report", reflect.ValueOf(got), reflect.ValueOf(want))
}

// TestMergeDisjointMatchesSingle: the reports of trackers over disjoint
// PC sets, merged with Report.Merge as the server merges its shards',
// equal the report of one tracker that saw every PC. Each tracker
// observes its own bank, as each shard's does.
func TestMergeDisjointMatchesSingle(t *testing.T) {
	observed := func() (*core.Bank, *Tracker) {
		b := core.NewBank(core.NewLastValue(), core.NewFCM(2))
		tr := NewTracker(Config{MinEvents: 1})
		b.SetObserver(tr)
		return b, tr
	}
	rng := rand.New(rand.NewSource(3))
	oneBank, one := observed()
	bank0, part0 := observed()
	bank1, part1 := observed()
	banks, parts := []*core.Bank{bank0, bank1}, []*Tracker{part0, part1}
	for pc := uint64(0); pc < 6; pc++ {
		n := 50 + rng.Intn(100)
		pcs, vals := make([]uint64, n), make([]uint64, n)
		for i := range vals {
			pcs[i], vals[i] = pc, uint64(rng.Intn(4))
		}
		oneBank.StepBatch(pcs, vals)
		banks[pc%2].StepBatch(pcs, vals)
	}
	merged := &Report{}
	for _, p := range parts {
		merged.Merge(p.Report(10), 10)
	}
	sameReport(t, merged, one.Report(10))
}

// TestClassLabeling checks the live window labeling against the paper's
// classes.
func TestClassLabeling(t *testing.T) {
	tr := NewTracker(Config{MinEvents: 1})
	feed(tr, 1, seqclass.Take(seqclass.ConstantGen(9), 40))
	feed(tr, 2, seqclass.Take(seqclass.StrideGen(0, 3), 40))
	feed(tr, 3, seqclass.Take(seqclass.RepeatedGen([]uint64{5, 1, 9, 2}), 40))
	want := map[uint64]string{1: "C", 2: "S", 3: "RNS"}
	for pc, cls := range want {
		h, ok := tr.idx.Lookup(pc)
		if !ok {
			t.Fatalf("pc %d untracked", pc)
		}
		if got := tr.classOf(h).String(); got != cls {
			t.Errorf("pc %d classified %s, want %s", pc, got, cls)
		}
	}
}

// TestGapEvent: a highly predictable stream served only by a predictor
// that always misses must fire a predictability_gap ring event once past
// MinEvents, and only once (hysteresis latch). The context ceiling comes
// from an FCM(3) bound to the tracker and stepped over the same stream.
func TestGapEvent(t *testing.T) {
	ring := obs.NewRing(16)
	tr := NewTracker(Config{PredNames: []string{"l"}, Ring: ring, MinEvents: 256})
	fcm := core.NewFCM(3)
	tr.Bind([]core.Predictor{fcm})
	vals := seqclass.Take(seqclass.RepeatedGen([]uint64{5, 1, 9, 2}), 2048)
	hits := make([]byte, 64)
	for off := 0; off < len(vals); off += 64 {
		fcm.StepRun(7, vals[off:off+64], hits)
		tr.ObserveRun(7, vals[off:off+64], []uint64{0})
	}
	evs := ring.Events()
	n := 0
	for _, ev := range evs {
		if ev.Kind == "predictability_gap" {
			n++
			if ev.Shard != 0 || ev.Detail == "" {
				t.Errorf("bad gap event: %+v", ev)
			}
		}
	}
	if n != 1 {
		t.Fatalf("got %d gap events, want exactly 1 (latched): %+v", n, evs)
	}
}

// TestObserveRunZeroAlloc is the steady-state gate for the tracker
// itself: once every PC's slabs exist, ObserveRun allocates nothing —
// including with a ring attached (gap checks run but don't fire on a
// stream the bank predicts perfectly).
func TestObserveRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ring := obs.NewRing(64)
	tr := NewTracker(Config{PredNames: []string{"l", "fcm3"}, Ring: ring, MinEvents: 256})
	const batch = 256
	vals := make([]uint64, batch)
	hits := []uint64{batch, batch} // both predictors predict every value
	period := []uint64{3, 1, 4, 7}
	fill := func(base int) {
		for j := range vals {
			vals[j] = period[(base+j)%4]
		}
	}
	for it := 0; it < 8; it++ {
		fill(it)
		for pc := uint64(0); pc < 16; pc++ {
			tr.ObserveRun(pc, vals, hits)
		}
	}
	it := 8
	allocs := testing.AllocsPerRun(50, func() {
		fill(it)
		for pc := uint64(0); pc < 16; pc++ {
			tr.ObserveRun(pc, vals, hits)
		}
		it++
	})
	if allocs != 0 {
		t.Fatalf("ObserveRun steady state allocates %.1f allocs", allocs)
	}
}
