package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// trainStream produces a deterministic mixed stream exercising every
// predictor family: strides, constants, short repeating patterns and
// noise, spread over a few dozen PCs (including PC 0).
func trainStream(n int) []struct{ PC, Value uint64 } {
	rng := rand.New(rand.NewSource(42))
	evs := make([]struct{ PC, Value uint64 }, n)
	for i := range evs {
		pc := uint64(rng.Intn(48)) * 4 // includes pc 0
		var v uint64
		switch pc % 16 {
		case 0:
			v = uint64(i) * 8 // stride
		case 4:
			v = 7 // constant
		case 8:
			v = []uint64{3, 1, 4, 1, 5}[i%5] // period 5
		default:
			v = rng.Uint64() >> uint(rng.Intn(60)) // noise, varied width
		}
		evs[i] = struct{ PC, Value uint64 }{pc, v}
	}
	return evs
}

// saveBytes encodes p's state or fails the test.
func saveBytes(t *testing.T, p Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("%s SaveState: %v", p.Name(), err)
	}
	return buf.Bytes()
}

// TestStatefulRoundTripExact is the capability's core contract, checked
// for every registry predictor: train a on a stream prefix, save, load
// into fresh b, then run both over the suffix comparing every individual
// prediction — and re-saving b must reproduce a's bytes (canonical form).
func TestStatefulRoundTripExact(t *testing.T) {
	evs := trainStream(6000)
	for _, fac := range KnownFactories() {
		t.Run(fac.Name, func(t *testing.T) {
			a := fac.New()
			for _, ev := range evs[:4000] {
				a.Predict(ev.PC)
				a.Update(ev.PC, ev.Value)
			}
			state := saveBytes(t, a)

			b := fac.New()
			if err := b.LoadState(bytes.NewReader(state)); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			if got := saveBytes(t, b); !bytes.Equal(got, state) {
				t.Fatalf("re-saved state is not byte-identical (%d vs %d bytes)", len(got), len(state))
			}
			for i, ev := range evs[4000:] {
				av, aok := a.Predict(ev.PC)
				bv, bok := b.Predict(ev.PC)
				if aok != bok || av != bv {
					t.Fatalf("event %d pc=%#x: original (%d,%v) vs restored (%d,%v)", i, ev.PC, av, aok, bv, bok)
				}
				a.Update(ev.PC, ev.Value)
				b.Update(ev.PC, ev.Value)
			}
			// Final states must agree byte-for-byte, too.
			if !bytes.Equal(saveBytes(t, a), saveBytes(t, b)) {
				t.Fatal("states diverged after continued updates")
			}
		})
	}
}

// TestStatefulEmptyRoundTrip covers the untrained edge: an empty save
// must load into an empty, working predictor.
func TestStatefulEmptyRoundTrip(t *testing.T) {
	for _, fac := range KnownFactories() {
		t.Run(fac.Name, func(t *testing.T) {
			state := saveBytes(t, fac.New())
			b := fac.New()
			if err := b.LoadState(bytes.NewReader(state)); err != nil {
				t.Fatalf("LoadState of empty state: %v", err)
			}
			if _, ok := b.Predict(4); ok {
				t.Fatal("restored-empty predictor predicted")
			}
			b.Update(4, 9)
		})
	}
}

// TestLoadStateReplacesExisting: LoadState is an implicit Reset — state
// present before the load must not leak through.
func TestLoadStateReplacesExisting(t *testing.T) {
	evs := trainStream(2000)
	for _, fac := range KnownFactories() {
		t.Run(fac.Name, func(t *testing.T) {
			a := fac.New()
			for _, ev := range evs[:500] {
				a.Update(ev.PC, ev.Value)
			}
			want := saveBytes(t, a)

			b := fac.New()
			for _, ev := range evs[500:] { // different training
				b.Update(ev.PC, ev.Value)
			}
			if err := b.LoadState(bytes.NewReader(want)); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			if got := saveBytes(t, b); !bytes.Equal(got, want) {
				t.Fatal("pre-existing state leaked through LoadState")
			}
		})
	}
}

// TestLoadStateRejectsCorrupt feeds every predictor truncations and
// bit-flips of a valid state: the decoder must return an error or, for
// mutations that still parse, at minimum never panic.
func TestLoadStateRejectsCorrupt(t *testing.T) {
	evs := trainStream(3000)
	for _, fac := range KnownFactories() {
		t.Run(fac.Name, func(t *testing.T) {
			a := fac.New()
			for _, ev := range evs {
				a.Update(ev.PC, ev.Value)
			}
			state := saveBytes(t, a)
			if len(state) < 8 {
				t.Fatalf("state unexpectedly tiny: %d bytes", len(state))
			}
			// Every truncation must fail: the formats are exactly sized.
			for _, cut := range []int{1, len(state) / 2, len(state) - 1} {
				if err := fac.New().LoadState(bytes.NewReader(state[:cut])); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
			// Trailing garbage must fail (expectEOF).
			withTail := append(append([]byte(nil), state...), 0x01)
			if err := fac.New().LoadState(bytes.NewReader(withTail)); err == nil {
				t.Fatal("trailing garbage accepted")
			}
			// A wild leading count must fail without huge allocation.
			huge := append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, state...)
			if err := fac.New().LoadState(bytes.NewReader(huge)); err == nil {
				t.Fatal("absurd element count accepted")
			}
			// Deterministic bit flips: must never panic.
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				mut := append([]byte(nil), state...)
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
				fac.New().LoadState(bytes.NewReader(mut))
			}
		})
	}
}

// TestStatefulConfigMismatch: structured predictors must reject state
// saved by a differently-configured instance rather than corrupt their
// tables.
func TestStatefulConfigMismatch(t *testing.T) {
	evs := trainStream(1000)

	f2 := NewFCM(2)
	for _, ev := range evs {
		f2.Update(ev.PC, ev.Value)
	}
	var buf bytes.Buffer
	if err := f2.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := NewFCM(3).LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("order-3 FCM accepted order-2 state")
	}
	if err := NewFCMNoBlend(2).LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("no-blend FCM accepted blended state")
	}
}

// TestRegistryAllStateful pins what checkpoints rely on across the
// registry: a snapshot records each predictor's state under its registry
// name and restore rebuilds it from the factory of that name, so every
// instance must report its registry name and reload its own saved state.
func TestRegistryAllStateful(t *testing.T) {
	for _, fac := range KnownFactories() {
		p := fac.New()
		if p.Name() != fac.Name {
			t.Errorf("registry predictor %q reports name %q", fac.Name, p.Name())
		}
		if err := fac.New().LoadState(bytes.NewReader(saveBytes(t, p))); err != nil {
			t.Errorf("registry predictor %q does not reload its own state: %v", fac.Name, err)
		}
	}
}

// TestPCEntriesMatchesTableEntries: summed per-PC occupancy must agree
// with the aggregate Sized view for map-backed predictors.
func TestPCEntriesMatchesTableEntries(t *testing.T) {
	evs := trainStream(4000)
	for _, fac := range KnownFactories() {
		t.Run(fac.Name, func(t *testing.T) {
			p := fac.New()
			for _, ev := range evs {
				p.Update(ev.PC, ev.Value)
			}
			perPC := p.PCEntries()
			static, total := p.TableEntries()
			sum := 0
			for _, n := range perPC {
				sum += n
			}
			if len(perPC) != static {
				t.Fatalf("PCEntries has %d PCs, Sized reports %d static", len(perPC), static)
			}
			if sum != total {
				t.Fatalf("PCEntries sum %d != Sized total %d", sum, total)
			}
		})
	}
}
