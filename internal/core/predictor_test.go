package core

import (
	"testing"
	"testing/quick"
)

// --- Last value -----------------------------------------------------------

func TestLastValueBasics(t *testing.T) {
	p := NewLastValue()
	if _, ok := p.Predict(10); ok {
		t.Fatal("empty predictor must not predict")
	}
	p.Update(10, 42)
	if v, ok := p.Predict(10); !ok || v != 42 {
		t.Fatalf("got (%d,%v), want (42,true)", v, ok)
	}
	if _, ok := p.Predict(11); ok {
		t.Fatal("different PC must have its own entry")
	}
	p.Update(10, 99)
	if v, _ := p.Predict(10); v != 99 {
		t.Fatalf("always-update must replace: got %d", v)
	}
}

func TestLastValueConstantSequence(t *testing.T) {
	// Table 1: LT=1 (first prediction after one observation), LD=100%.
	p := NewLastValue()
	values := make([]uint64, 100)
	for i := range values {
		values[i] = 7
	}
	acc := RunSequence(p, values)
	if acc.Correct != 99 {
		t.Fatalf("constant sequence: got %d correct, want 99", acc.Correct)
	}
}

func TestLastValueStrideSequenceFails(t *testing.T) {
	// Table 1 marks last-value unsuitable for stride sequences.
	p := NewLastValue()
	values := make([]uint64, 100)
	for i := range values {
		values[i] = uint64(i)
	}
	acc := RunSequence(p, values)
	if acc.Correct != 0 {
		t.Fatalf("stride sequence: got %d correct, want 0", acc.Correct)
	}
}

func TestLastValueCounterHysteresis(t *testing.T) {
	p := NewLastValueCounter(3, 1)
	// Build confidence in 5.
	for i := 0; i < 4; i++ {
		p.Update(1, 5)
	}
	// One blip must not replace the prediction (counter above threshold).
	p.Update(1, 6)
	if v, _ := p.Predict(1); v != 5 {
		t.Fatalf("single blip replaced value: got %d, want 5", v)
	}
	// Repeated failures drain the counter and eventually replace.
	for i := 0; i < 5; i++ {
		p.Update(1, 6)
	}
	if v, _ := p.Predict(1); v != 6 {
		t.Fatalf("persistent new value not adopted: got %d, want 6", v)
	}
}

func TestLastValueConsecutiveAdoptsAfterRun(t *testing.T) {
	p := NewLastValueConsecutive(3)
	p.Update(1, 5)
	if v, _ := p.Predict(1); v != 5 {
		t.Fatal("first value must be adopted immediately")
	}
	p.Update(1, 9)
	p.Update(1, 9)
	if v, _ := p.Predict(1); v != 5 {
		t.Fatalf("adopted after only 2 observations: got %d", v)
	}
	p.Update(1, 9)
	if v, _ := p.Predict(1); v != 9 {
		t.Fatalf("not adopted after 3 consecutive: got %d", v)
	}
	// An interrupted run must restart the count.
	p.Update(1, 4)
	p.Update(1, 4)
	p.Update(1, 9)
	p.Update(1, 4)
	if v, _ := p.Predict(1); v != 9 {
		t.Fatalf("interrupted run adopted: got %d", v)
	}
}

// --- Stride ---------------------------------------------------------------

func TestStrideSimpleLearnsStride(t *testing.T) {
	// Table 1: stride on S has LT=2 and then LD=100%.
	p := NewStrideSimple()
	var firstCorrect int
	for i := 0; i < 50; i++ {
		v := uint64(10 + 3*i)
		pred, ok := p.Predict(0)
		if ok && pred == v && firstCorrect == 0 {
			firstCorrect = i + 1
		}
		if i >= 2 && (!ok || pred != v) {
			t.Fatalf("step %d: got (%d,%v), want %d", i, pred, ok, v)
		}
		p.Update(0, v)
	}
	if firstCorrect != 3 {
		// Values observed before first correct = 2 (LT=2 in the paper's
		// counting); the first correct prediction is for the 3rd value.
		t.Fatalf("first correct at %d, want 3", firstCorrect)
	}
}

func TestStrideNegativeDelta(t *testing.T) {
	p := NewStride2Delta()
	for i := 0; i < 20; i++ {
		v := uint64(int64(1000 - 7*i))
		pred, ok := p.Predict(0)
		if i >= 3 && (!ok || pred != v) {
			t.Fatalf("step %d: got (%d,%v), want %d", i, pred, ok, v)
		}
		p.Update(0, v)
	}
}

func TestStrideSimpleRepeatedStrideTwoMissesPerIteration(t *testing.T) {
	// Section 2.1: the plain stride predictor misses twice per repeat of
	// an RS sequence (at the wrap, and again re-learning the stride).
	p := NewStrideSimple()
	seq := []uint64{1, 2, 3, 4}
	misses := 0
	// Warm up two full periods, then count misses over 10 periods.
	for rep := 0; rep < 12; rep++ {
		for _, v := range seq {
			pred, ok := p.Predict(0)
			if rep >= 2 && (!ok || pred != v) {
				misses++
			}
			p.Update(0, v)
		}
	}
	if misses != 20 {
		t.Fatalf("simple stride misses = %d over 10 periods, want 20", misses)
	}
}

func TestStride2DeltaRepeatedStrideOneMissPerIteration(t *testing.T) {
	// Table 1: stride with hysteresis gets LD = (p-1)/p on RS sequences.
	p := NewStride2Delta()
	seq := []uint64{1, 2, 3, 4}
	misses := 0
	for rep := 0; rep < 12; rep++ {
		for _, v := range seq {
			pred, ok := p.Predict(0)
			if rep >= 2 && (!ok || pred != v) {
				misses++
			}
			p.Update(0, v)
		}
	}
	if misses != 10 {
		t.Fatalf("2-delta misses = %d over 10 periods, want 10", misses)
	}
}

func TestStride2DeltaMatchesFig2Trace(t *testing.T) {
	// Figure 2 walks stride prediction over 1 2 3 4 repeated: predictions
	// are 0 0 3 4 5 2 3 4 5 2 3 4 (0 = no prediction yet).
	p := NewStride2Delta()
	input := []uint64{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}
	want := []uint64{0, 0, 3, 4, 5, 2, 3, 4, 5, 2, 3, 4}
	for i, v := range input {
		pred, ok := p.Predict(0)
		if !ok {
			pred = 0
		}
		if pred != want[i] {
			t.Fatalf("step %d: predicted %d, want %d", i, pred, want[i])
		}
		p.Update(0, v)
	}
}

func TestStrideCounterHoldsStrideThroughBlip(t *testing.T) {
	p := NewStrideCounter(3, 1)
	// Learn stride 5 with confidence.
	for i := 0; i < 8; i++ {
		p.Update(0, uint64(5*i))
	}
	// Wrap back (like an RS sequence boundary): one failure.
	p.Update(0, 0)
	// The held stride should still be 5 (counter hysteresis).
	if v, ok := p.Predict(0); !ok || v != 5 {
		t.Fatalf("after blip got (%d,%v), want (5,true)", v, ok)
	}
}

// --- FCM ------------------------------------------------------------------

func TestFCMConstantSequence(t *testing.T) {
	// Table 1: order-o FCM needs o values before it can match, then 100%.
	for order := 1; order <= 3; order++ {
		p := NewFCM(order)
		values := make([]uint64, 50)
		for i := range values {
			values[i] = 9
		}
		acc := RunSequence(p, values)
		// With blending, the order-0 model predicts from the 2nd value on.
		if int(acc.Correct) != 49 {
			t.Fatalf("order %d: got %d correct, want 49", order, acc.Correct)
		}
	}
}

func TestFCMNoBlendConstantNeedsOrderValues(t *testing.T) {
	order := 3
	p := NewFCMNoBlend(order)
	correctAt := -1
	for i := 0; i < 10; i++ {
		pred, ok := p.Predict(0)
		if ok && pred == 9 && correctAt < 0 {
			correctAt = i
		}
		p.Update(0, 9)
	}
	// Without blending the first order-3 context exists after 3 values
	// and has a count after the 4th; first hit predicting value #5 (i=4).
	if correctAt != 4 {
		t.Fatalf("first correct at %d, want 4", correctAt)
	}
}

func TestFCMRepeatedNonStride(t *testing.T) {
	// Table 1: only FCM handles RNS; after p+o values it is 100%.
	seq := []uint64{1, ^uint64(12), ^uint64(98), 7} // 1 -13 -99 7 pattern
	p := NewFCM(2)
	misses := 0
	for rep := 0; rep < 10; rep++ {
		for _, v := range seq {
			pred, ok := p.Predict(0)
			if rep >= 2 && (!ok || pred != v) {
				misses++
			}
			p.Update(0, v)
		}
	}
	if misses != 0 {
		t.Fatalf("FCM on RNS: %d misses in steady state, want 0", misses)
	}
}

func TestFCMMatchesFig2Trace(t *testing.T) {
	// Figure 2: order-2 FCM over 1 2 3 4 repeated predicts
	// 0 0 0 0 0 0 3 4 1 2 3 4 (learn time = period + order = 6).
	p := NewFCMNoBlend(2)
	input := []uint64{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4}
	want := []uint64{0, 0, 0, 0, 0, 0, 3, 4, 1, 2, 3, 4}
	for i, v := range input {
		pred, ok := p.Predict(0)
		if !ok {
			pred = 0
		}
		if pred != want[i] {
			t.Fatalf("step %d: predicted %d, want %d", i, pred, want[i])
		}
		p.Update(0, v)
	}
}

func TestFCMCannotPredictNonRepeating(t *testing.T) {
	// Table 1: FCM is unsuitable for S and NS sequences (every context is
	// new). Use no-blend to avoid order-0 lucky hits.
	p := NewFCMNoBlend(2)
	correct := 0
	for i := 0; i < 200; i++ {
		v := uint64(i * 3)
		pred, ok := p.Predict(0)
		if ok && pred == v {
			correct++
		}
		p.Update(0, v)
	}
	if correct != 0 {
		t.Fatalf("FCM predicted %d stride values, want 0", correct)
	}
}

func TestFCMMaxCountWins(t *testing.T) {
	// After context [7]: value 5 twice, value 6 once -> predict 5.
	p := NewFCMNoBlend(1)
	feed := []uint64{7, 5, 7, 6, 7, 5}
	for _, v := range feed {
		p.Update(0, v)
	}
	// History is now [5]; teach context [5] -> 7 so we can steer; instead
	// query context [7] by feeding a 7.
	p.Update(0, 7)
	if v, ok := p.Predict(0); !ok || v != 5 {
		t.Fatalf("got (%d,%v), want (5,true)", v, ok)
	}
}

func TestFCMMostRecentTieBreak(t *testing.T) {
	p := NewFCMNoBlend(1)
	// Context [7] followed once by 5, once by 6 (tie); 6 is more recent.
	for _, v := range []uint64{7, 5, 7, 6, 7} {
		p.Update(0, v)
	}
	if v, ok := p.Predict(0); !ok || v != 6 {
		t.Fatalf("got (%d,%v), want (6,true) on most-recent tie-break", v, ok)
	}
}

func TestFCMPerPCTablesAreIndependent(t *testing.T) {
	p := NewFCM(1)
	for i := 0; i < 10; i++ {
		p.Update(100, 1)
		p.Update(200, 2)
	}
	if v, _ := p.Predict(100); v != 1 {
		t.Fatalf("pc 100: got %d, want 1", v)
	}
	if v, _ := p.Predict(200); v != 2 {
		t.Fatalf("pc 200: got %d, want 2", v)
	}
}

func TestFCMLazyExclusionUpdatesMatchedAndHigher(t *testing.T) {
	// Build an order-2 blend where only order 0 matches initially, and
	// verify that low-order tables are not polluted once a higher order
	// matches. We check observable behaviour: a value seen many times
	// under a specific order-2 context must win there even if a different
	// value dominates order 0 overall.
	p := NewFCM(2)
	// Teach order-2 context (1,2)->3 repeatedly.
	for i := 0; i < 6; i++ {
		p.Update(0, 1)
		p.Update(0, 2)
		p.Update(0, 3)
	}
	// Now history is (2,3); feed 1 then 2 so history becomes (1,2).
	p.Update(0, 1)
	p.Update(0, 2)
	if v, ok := p.Predict(0); !ok || v != 3 {
		t.Fatalf("order-2 context (1,2): got (%d,%v), want (3,true)", v, ok)
	}
}

func TestFCMOrderZeroIsLastValueLike(t *testing.T) {
	// The paper notes last-value prediction can be viewed as a 0th order
	// fcm with one prediction per context; our order-0 blend keeps counts,
	// so the most frequent value is predicted.
	p := NewFCM(0)
	for _, v := range []uint64{5, 5, 5, 9} {
		p.Update(0, v)
	}
	if v, ok := p.Predict(0); !ok || v != 5 {
		t.Fatalf("got (%d,%v), want (5,true)", v, ok)
	}
}

func TestFCMReset(t *testing.T) {
	p := NewFCM(2)
	for i := 0; i < 10; i++ {
		p.Update(1, uint64(i%3))
	}
	p.Reset()
	if _, ok := p.Predict(1); ok {
		t.Fatal("reset predictor must not predict")
	}
	static, total := p.TableEntries()
	if static != 0 || total != 0 {
		t.Fatalf("reset left entries: static=%d total=%d", static, total)
	}
}

func TestFCMTableEntriesGrow(t *testing.T) {
	p := NewFCM(2)
	for i := 0; i < 100; i++ {
		p.Update(uint64(i%5), uint64(i))
	}
	static, total := p.TableEntries()
	if static != 5 {
		t.Fatalf("static=%d, want 5", static)
	}
	if total == 0 {
		t.Fatal("total contexts must be > 0")
	}
}

// --- CountTable (Figure 1) --------------------------------------------------

func TestCountTableFig1(t *testing.T) {
	// The paper's Figure 1 sequence: a a a b c a a a b c a a a -> predict?
	seq := []string{"a", "a", "a", "b", "c", "a", "a", "a", "b", "c", "a", "a", "a"}

	m0 := NewCountTable(0)
	m0.Train(seq)
	if got := m0.Count(nil, "a"); got != 9 {
		t.Fatalf("order0 count(a)=%d, want 9", got)
	}
	if got := m0.Count(nil, "b"); got != 2 {
		t.Fatalf("order0 count(b)=%d, want 2", got)
	}
	if pred, _ := m0.Predict(seq); pred != "a" {
		t.Fatalf("order0 predicts %q, want a", pred)
	}

	m1 := NewCountTable(1)
	m1.Train(seq)
	if got := m1.Count([]string{"a"}, "a"); got != 6 {
		t.Fatalf("order1 count(a|a)=%d, want 6", got)
	}
	if got := m1.Count([]string{"a"}, "b"); got != 2 {
		t.Fatalf("order1 count(b|a)=%d, want 2", got)
	}
	if pred, _ := m1.Predict(seq); pred != "a" {
		t.Fatalf("order1 predicts %q, want a", pred)
	}

	m2 := NewCountTable(2)
	m2.Train(seq)
	if got := m2.Count([]string{"a", "a"}, "a"); got != 3 {
		t.Fatalf("order2 count(a|aa)=%d, want 3", got)
	}
	if got := m2.Count([]string{"a", "a"}, "b"); got != 2 {
		t.Fatalf("order2 count(b|aa)=%d, want 2", got)
	}
	if pred, _ := m2.Predict(seq); pred != "a" {
		t.Fatalf("order2 predicts %q, want a", pred)
	}

	// Order 3 is the interesting one: context (a,a,a) is always followed
	// by b in this sequence, so the prediction flips to b.
	m3 := NewCountTable(3)
	m3.Train(seq)
	if got := m3.Count([]string{"a", "a", "a"}, "b"); got != 2 {
		t.Fatalf("order3 count(b|aaa)=%d, want 2", got)
	}
	if pred, _ := m3.Predict(seq); pred != "b" {
		t.Fatalf("order3 predicts %q, want b (Figure 1)", pred)
	}
}

// --- property-based tests ----------------------------------------------------

func TestPropertyLastValueAlwaysEchoesPrevious(t *testing.T) {
	f := func(pcs []uint64, values []uint64) bool {
		p := NewLastValue()
		last := make(map[uint64]uint64)
		n := min(len(pcs), len(values))
		for i := 0; i < n; i++ {
			pc, v := pcs[i]%16, values[i]
			pred, ok := p.Predict(pc)
			want, seen := last[pc]
			if ok != seen || (seen && pred != want) {
				return false
			}
			p.Update(pc, v)
			last[pc] = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStridePerfectOnAnyAffineSequence(t *testing.T) {
	f := func(start, delta uint64) bool {
		p := NewStride2Delta()
		for i := 0; i < 40; i++ {
			v := start + uint64(i)*delta
			pred, ok := p.Predict(0)
			if i >= 3 && (!ok || pred != v) {
				return false
			}
			p.Update(0, v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFCMPerfectOnAnyShortCycle(t *testing.T) {
	f := func(a, b, c uint64) bool {
		// Any period-3 repeating sequence must reach 100% for order>=3
		// (order >= period guarantees unique contexts).
		seq := []uint64{a, b, c}
		p := NewFCM(3)
		for rep := 0; rep < 12; rep++ {
			for _, v := range seq {
				pred, ok := p.Predict(0)
				if rep >= 4 && (!ok || pred != v) {
					return false
				}
				p.Update(0, v)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPredictIsPure(t *testing.T) {
	// Calling Predict many times must not change any predictor's answer.
	preds := []Predictor{
		NewLastValue(), NewLastValueCounter(3, 1), NewLastValueConsecutive(2),
		NewStrideSimple(), NewStride2Delta(), NewStrideCounter(3, 1),
		NewFCM(2), NewFCMNoBlend(2),
	}
	f := func(values []uint64) bool {
		for _, p := range preds {
			p.Reset()
			for _, v := range values {
				v1, ok1 := p.Predict(0)
				for k := 0; k < 3; k++ {
					v2, ok2 := p.Predict(0)
					if v1 != v2 || ok1 != ok2 {
						return false
					}
				}
				p.Update(0, v)
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAccuracyNeverExceedsTotal(t *testing.T) {
	f := func(pcs, values []uint64) bool {
		p := NewFCM(2)
		acc := Run(p, pcs, values)
		return acc.Correct <= acc.Total && acc.Rate() >= 0 && acc.Rate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardFactoriesProduceFreshInstances(t *testing.T) {
	for _, f := range StandardFactories() {
		a, b := f.New(), f.New()
		a.Update(1, 42)
		if _, ok := b.Predict(1); ok {
			t.Fatalf("%s: factory instances share state", f.Name)
		}
		if a.Name() != f.Name {
			t.Fatalf("factory name %q != instance name %q", f.Name, a.Name())
		}
	}
}
