package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// TestPredictorsSteadyStateZeroAlloc pins the flat storage layer's core
// property: once every PC, context and value has been seen, the
// predict/update path allocates nothing. The stream is strictly periodic
// over a fixed PC set and fully warmed first, so any allocation reported
// here is a per-event cost, not amortized growth. A save clears the
// change marks before the measured steps, so those steps set them again,
// which the delta cut afterwards confirms.
func TestPredictorsSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rns := NonStride4 // period-4 repeating values
	preds := []Predictor{
		NewLastValue(),
		NewStride2Delta(),
		NewFCM(1),
		NewFCM(3),
		NewFCM(8),
	}
	for _, p := range preds {
		t.Run(p.Name(), func(t *testing.T) {
			step := func(i int) {
				pc := uint64(i % 48)
				v := rns[(uint64(i/48)+pc)%4]
				p.Predict(pc)
				p.Update(pc, v)
			}
			for i := 0; i < 48*16; i++ { // warm every context of every order
				step(i)
			}
			i := 48 * 16
			if err := p.SaveState(io.Discard); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				step(i)
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s steady state allocates %.1f allocs per event", p.Name(), allocs)
			}
			requireMarked(t, p)
		})
	}
}

// NonStride4 is a fixed period-4 non-stride value pattern (3 1 4 1 would
// alias a stride; these do not).
var NonStride4 = []uint64{3, 1, 4, 7}

// requireMarked fails unless p's next delta carries a record: the steps
// since its last save set its change marks.
func requireMarked(t *testing.T, p Predictor) {
	t.Helper()
	if n, err := p.SaveDelta(io.Discard); err != nil || n == 0 {
		t.Fatalf("%s: the measured steps left no change mark (delta records %d, err %v)", p.Name(), n, err)
	}
}

// TestBankSteadyStateZeroAlloc extends the steady-state property to the
// batch execution layer: once every PC, context and value has been seen
// and the grouping arenas have grown to the batch size, Bank.StepBatch
// allocates nothing, the change marks every StepRun sets included.
func TestBankSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rns := NonStride4
	b := NewBank(
		NewLastValue(),
		NewStride2Delta(),
		NewFCM(3),
	)
	const batch = 1024
	pcs := make([]uint64, batch)
	vals := make([]uint64, batch)
	counts := make([]uint64, 3)
	bits := [][]uint64{nil, nil, make([]uint64, (batch+63)/64)}
	fill := func(base int) {
		for j := 0; j < batch; j++ {
			i := base + j
			pc := uint64(i % 48)
			pcs[j] = pc
			vals[j] = rns[(uint64(i/48)+pc)%4]
		}
	}
	for it := 0; it < 16; it++ { // warm every PC, context and arena
		fill(it * batch)
		b.StepBatch(pcs, vals)
	}
	for _, p := range b.Predictors() {
		if err := p.SaveState(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	it := 16
	allocs := testing.AllocsPerRun(100, func() {
		fill(it * batch)
		b.StepBatchCollect(pcs, vals, counts, bits)
		it++
	})
	if allocs != 0 {
		t.Fatalf("bank steady state allocates %.1f allocs per batch", allocs)
	}
	for _, p := range b.Predictors() {
		requireMarked(t, p)
	}
}

// countingObserver is the cheapest possible RunObserver: it only tallies,
// so any allocation reported by the gate below belongs to the Bank's
// observer plumbing, not the observer itself.
type countingObserver struct {
	runs, events, hits uint64
}

func (o *countingObserver) Bind([]Predictor) {}

func (o *countingObserver) ObserveRun(pc uint64, values []uint64, hits []uint64) {
	o.runs++
	o.events += uint64(len(values))
	for _, h := range hits {
		o.hits += h
	}
}

// TestBankObserverZeroAlloc is the CI gate for the observer hook: in
// steady state Bank.StepBatch must allocate nothing both with a nil
// observer (the default hot path) and with one attached (the per-run hit
// counts are reused across batches).
func TestBankObserverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rns := NonStride4
	for _, attached := range []bool{false, true} {
		name := "nil-observer"
		if attached {
			name = "attached-observer"
		}
		t.Run(name, func(t *testing.T) {
			b := NewBank(
				NewLastValue(),
				NewStride2Delta(),
				NewFCM(3),
			)
			obs := &countingObserver{}
			if attached {
				b.SetObserver(obs)
			}
			const batch = 1024
			pcs := make([]uint64, batch)
			vals := make([]uint64, batch)
			fill := func(base int) {
				for j := 0; j < batch; j++ {
					i := base + j
					pc := uint64(i % 48)
					pcs[j] = pc
					vals[j] = rns[(uint64(i/48)+pc)%4]
				}
			}
			for it := 0; it < 16; it++ {
				fill(it * batch)
				b.StepBatch(pcs, vals)
			}
			it := 16
			allocs := testing.AllocsPerRun(100, func() {
				fill(it * batch)
				b.StepBatch(pcs, vals)
				it++
			})
			if allocs != 0 {
				t.Fatalf("%s: steady state allocates %.1f allocs per batch", name, allocs)
			}
			if attached && obs.events == 0 {
				t.Fatal("observer saw no events")
			}
		})
	}
}

// TestFCMLoadStateAllocs gates the restore path's allocations: loading an
// FCM(3) state learned from 300K events (about 450K contexts) must cost a
// number of allocations that grows with the number of slab doublings,
// not with the number of contexts or key words. A decoder that allocated
// per key word made about 900,000 here.
func TestFCMLoadStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := NewFCM(3)
	for _, ev := range trainStream(300_000) {
		src.Update(ev.PC, ev.Value)
	}
	state := saveBytes(t, src)
	p := NewFCM(3)
	allocs := testing.AllocsPerRun(1, func() {
		if err := p.LoadState(bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
	})
	if _, ctxs := p.TableEntries(); ctxs < 300_000 {
		t.Fatalf("state too small to gate: %d contexts", ctxs)
	}
	if allocs >= 1000 {
		t.Fatalf("loading %d bytes of FCM(3) state made %.0f allocations, want < 1000", len(state), allocs)
	}
}

// TestFCMBytesPerContext gates the FCM's retained memory: an FCM(3)
// loaded from the state 300K events teach it (447,733 contexts) must hold
// under 85 bytes of live heap per context, pages, slot tables, value
// indexes and growth slack included, and its byte account must match
// the heap it holds. Paged slabs with 12-byte pairs retain 78.7 here
// (the gate leaves 8% of margin); slabs that double and 16-byte pairs
// retain about 120. The state buffer is kept alive past the second
// reading, so the figure is the FCM's own.
func TestFCMBytesPerContext(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under the race detector")
	}
	src := NewFCM(3)
	for _, ev := range trainStream(300_000) {
		src.Update(ev.PC, ev.Value)
	}
	state := saveBytes(t, src)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := NewFCM(3)
	if err := p.LoadState(bytes.NewReader(state)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(state)
	_, ctxs := p.TableEntries()
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perCtx := float64(held) / float64(ctxs)
	acct := p.StateBytes().Reserved
	runtime.KeepAlive(p)
	t.Logf("%d contexts, %.1f B retained per context; the byte account reserves %d B of the %d held", ctxs, perCtx, acct, held)
	if perCtx >= 85 {
		t.Fatalf("FCM(3) retains %.1f B of heap per context, want < 85", perCtx)
	}
	if diff := held - acct; diff < 0 || diff > held/100 {
		t.Fatalf("the byte account reserves %d B, the FCM holds %d B of heap", acct, held)
	}
}
