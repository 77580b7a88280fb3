package predstat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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

// TestStreamingEntropyExact pins the streaming estimator to the exact
// empirical conditional entropy (and ideal-predictor ceiling) on small
// alphabets, where nothing escapes or overflows: randomized sequences
// over alphabets of size 2..5, checked at every order.
func TestStreamingEntropyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		alpha := 2 + trial%4
		n := 100 + rng.Intn(400)
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(rng.Intn(alpha)) * 1000003 // non-trivial values
		}
		tr := NewTracker(Config{MaxOrder: 3, MaxValues: 8, MaxCtx: 2048, MinEvents: 1})
		feed(tr, 0x40, values)
		h, ok := tr.idx.Lookup(0x40)
		if !ok {
			t.Fatal("pc not tracked")
		}
		for order := 0; order <= 3; order++ {
			wantH, wantC := bruteForce(values, order)
			gotH, gotC, tot := tr.orderStats(h, order)
			if want := uint64(n - order); tot != want {
				t.Fatalf("trial %d order %d: tabled %d events, want %d", trial, order, tot, want)
			}
			if math.Abs(gotH-wantH) > 1e-9 {
				t.Errorf("trial %d order %d: entropy %.12f, want %.12f", trial, order, gotH, wantH)
			}
			if math.Abs(gotC-wantC) > 1e-9 {
				t.Errorf("trial %d order %d: ceiling %.12f, want %.12f", trial, order, gotC, wantC)
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
	lv, st, _, _ := tr.pcCeilings(h)
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
// equal the report of one tracker that saw every PC.
func TestMergeDisjointMatchesSingle(t *testing.T) {
	cfg := Config{MinEvents: 1, PredNames: []string{"l"}}
	rng := rand.New(rand.NewSource(3))
	one := NewTracker(cfg)
	parts := []*Tracker{NewTracker(cfg), NewTracker(cfg)}
	for pc := uint64(0); pc < 6; pc++ {
		n := 50 + rng.Intn(100)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(4))
		}
		hits := [][]byte{make([]byte, n)}
		for i := range hits[0] {
			hits[0][i] = byte(rng.Intn(2))
		}
		one.ObserveRun(pc, vals, hits)
		parts[pc%2].ObserveRun(pc, vals, hits)
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
// MinEvents, and only once (hysteresis latch).
func TestGapEvent(t *testing.T) {
	ring := obs.NewRing(16)
	tr := NewTracker(Config{PredNames: []string{"l"}, Ring: ring, MinEvents: 256, GapThreshold: 0.25})
	vals := seqclass.Take(seqclass.RepeatedGen([]uint64{5, 1, 9, 2}), 2048)
	miss := make([]byte, 64)
	for off := 0; off < len(vals); off += 64 {
		tr.ObserveRun(7, vals[off:off+64], [][]byte{miss[:64]})
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

// TestBoundedMemory floods one PC with distinct values under a tiny
// config: the alphabet escapes, tables overflow, and nothing grows or
// panics; the report stays sane.
func TestBoundedMemory(t *testing.T) {
	tr := NewTracker(Config{MaxValues: 4, MaxCtx: 8, Window: 8, MinEvents: 16, PredNames: []string{"l"}})
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(i) * 2654435761
	}
	hits := make([]byte, len(vals))
	tr.ObserveRun(9, vals, [][]byte{hits})
	r := tr.Report(5)
	if r.Reported != 1 || r.Events != 4096 {
		t.Fatalf("report: %+v", r)
	}
	pr := r.Hardest[0]
	if pr.Ceiling < 0 || pr.Ceiling > 1 || math.IsNaN(pr.EntropyBits) {
		t.Fatalf("bad pc report: %+v", pr)
	}
	if got := len(tr.cnt); got != (tr.cfg.MaxOrder+1)*tr.cfg.MaxCtx {
		t.Fatalf("count slab grew: %d entries", got)
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
	hit := make([]byte, batch)
	for i := range hit {
		hit[i] = 1
	}
	rows := [][]byte{hit, hit}
	period := []uint64{3, 1, 4, 7}
	fill := func(base int) {
		for j := range vals {
			vals[j] = period[(base+j)%4]
		}
	}
	for it := 0; it < 8; it++ {
		fill(it)
		for pc := uint64(0); pc < 16; pc++ {
			tr.ObserveRun(pc, vals, rows)
		}
	}
	it := 8
	allocs := testing.AllocsPerRun(50, func() {
		fill(it)
		for pc := uint64(0); pc < 16; pc++ {
			tr.ObserveRun(pc, vals, rows)
		}
		it++
	})
	if allocs != 0 {
		t.Fatalf("ObserveRun steady state allocates %.1f allocs", allocs)
	}
}
