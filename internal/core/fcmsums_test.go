package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// topSums returns every PC's two top-order sums, keyed by PC.
func topSums(p *FCM) map[uint64][2]uint64 {
	out := make(map[uint64][2]uint64, len(p.pcs))
	for i := range p.pcs {
		hits, events := p.TopOrderSums(p.pcs[i].pc)
		out[p.pcs[i].pc] = [2]uint64{hits, events}
	}
	return out
}

// requireRunSums fails t unless every PC's top-order sums equal the sums
// recomputed from its top-order runs, and, for a stepped FCM, its
// top-order events equal the events it stepped with a full history.
func requireRunSums(t *testing.T, p *FCM, stepped bool) {
	t.Helper()
	want := make([][2]uint64, len(p.pcs))
	st := &p.ords[p.order]
	for pg := range st.pages() {
		for i := range st.page(pg) {
			c := &st.page(pg)[i]
			top, sum := p.runSums(c)
			want[c.pcIdx][0] += top
			want[c.pcIdx][1] += sum
		}
	}
	for h := range p.pcs {
		s := &p.pcs[h]
		if got := [2]uint64{s.topHits, s.topEvents}; got != want[h] {
			t.Fatalf("%s pc %#x: top-order sums %v, its runs sum to %v", p.Name(), s.pc, got, want[h])
		}
		if full := s.updates - min(s.updates, uint64(p.order)); stepped && s.topEvents != full {
			t.Fatalf("%s pc %#x: %d top-order events after %d updates", p.Name(), s.pc, s.topEvents, s.updates)
		}
	}
}

// TestFCMTopOrderSums: an FCM keeps, per PC, the sum of each top-order
// context's highest count and the sum of all its counts. Stepped through
// a bank (constant stretches take the bulk path), the sums must equal the
// ones its runs give. Saved and loaded, and rebuilt as a root plus a
// delta, the state must carry the same sums as the stepped FCM.
func TestFCMTopOrderSums(t *testing.T) {
	for _, fac := range []func() *FCM{
		func() *FCM { return NewFCM(0) },
		func() *FCM { return NewFCM(1) },
		func() *FCM { return NewFCM(3) },
		func() *FCM { return NewFCMNoBlend(2) },
	} {
		live := fac()
		t.Run(live.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			b := NewBank(live)
			pcs, vals := deltaTraffic(rng, 0, 48, 8000)
			b.StepBatch(pcs, vals)
			root := saveBytes(t, live)
			for range 3 {
				pcs, vals = deltaTraffic(rng, 24, 48, 3000)
				for off := 0; off < len(pcs); off += 700 {
					end := min(off+700, len(pcs))
					b.StepBatch(pcs[off:end], vals[off:end])
				}
			}
			delta, _ := saveDelta(t, live)
			requireRunSums(t, live, true)
			want := topSums(live)

			loaded := fac()
			if err := loaded.LoadState(bytes.NewReader(saveBytes(t, live))); err != nil {
				t.Fatal(err)
			}
			rebuilt := fac()
			for _, s := range [][]byte{root, delta} {
				if _, err := rebuilt.ApplyDelta(bytes.NewReader(s)); err != nil {
					t.Fatal(err)
				}
			}
			for name, p := range map[string]*FCM{"loaded": loaded, "root plus delta": rebuilt} {
				requireRunSums(t, p, false)
				got := topSums(p)
				if len(got) != len(want) {
					t.Fatalf("%s: %d PCs, stepped %d", name, len(got), len(want))
				}
				for pc, w := range want {
					if got[pc] != w {
						t.Fatalf("%s pc %#x: sums %v, stepped %v", name, pc, got[pc], w)
					}
				}
			}
		})
	}
}

// TestFCMRejectsBestBelowMax: a run whose best ordinal does not hold its
// highest count is corrupt. No save writes one, and the top-order sums
// read the highest count at best; the load, the apply into an empty FCM
// and the apply onto a loaded one must all refuse it.
func TestFCMRejectsBestBelowMax(t *testing.T) {
	bad := fcm1RunState([]uint64{9, 5}, []uint64{1, 3}, 0)
	if err := NewFCM(1).LoadState(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "not its highest") {
		t.Errorf("LoadState = %v, want a best-ordinal error", err)
	}
	if _, err := NewFCM(1).ApplyDelta(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "not its highest") {
		t.Errorf("ApplyDelta into an empty FCM = %v, want a best-ordinal error", err)
	}
	p := NewFCM(1)
	if err := p.LoadState(bytes.NewReader(fcm1RunState([]uint64{9}, []uint64{4}, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyDelta(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "not its highest") {
		t.Errorf("ApplyDelta onto a loaded FCM = %v, want a best-ordinal error", err)
	}
	// A tie may sit at either ordinal: the most recent update wins it.
	for _, best := range []uint64{0, 1} {
		tie := fcm1RunState([]uint64{9, 5}, []uint64{3, 3}, best)
		if err := NewFCM(1).LoadState(bytes.NewReader(tie)); err != nil {
			t.Errorf("tie with best %d: %v", best, err)
		}
	}
}

// TestFCMFailedApplyIntoEmptyLeavesItEmpty: an apply into an FCM that
// holds no PC loads into a fresh store, so a stream that fails halfway
// leaves the receiver as new: it saves as a new FCM does, and a valid
// root then applies to it exactly as to a new one.
func TestFCMFailedApplyIntoEmptyLeavesItEmpty(t *testing.T) {
	src := NewFCM(3)
	for _, ev := range trainStream(5000) {
		src.Update(ev.PC, ev.Value)
	}
	root := saveBytes(t, src)
	p := NewFCM(3)
	if _, err := p.ApplyDelta(bytes.NewReader(root[:len(root)/2])); err == nil {
		t.Fatal("a truncated root applied")
	}
	if got, want := saveBytes(t, p), saveBytes(t, NewFCM(3)); !bytes.Equal(got, want) {
		t.Fatalf("after a failed apply the FCM saves %d bytes unlike a new one's %d", len(got), len(want))
	}
	fresh := NewFCM(3)
	want, err := fresh.ApplyDelta(bytes.NewReader(root))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ApplyDelta(bytes.NewReader(root))
	if err != nil || got != want {
		t.Fatalf("root after a failed apply: %d records, %v; into a new FCM %d", got, err, want)
	}
	if !bytes.Equal(saveBytes(t, p), saveBytes(t, fresh)) {
		t.Fatal("root after a failed apply saves differently from the root applied to a new FCM")
	}
	for _, ev := range trainStream(50) {
		if a, b := stepOne(p, ev.PC, ev.Value), stepOne(fresh, ev.PC, ev.Value); a != b {
			t.Fatalf("pc %#x: hit %d, a new FCM's %d", ev.PC, a, b)
		}
	}
}

// TestFCMApplyRejectsRepeatedContextWhenTrained: a record that lists one
// context twice at one order is refused by an apply into an FCM that
// holds PCs too, as by one into an empty FCM: FuzzLoadedStepParity's
// hand-built fcm1 states with a repeated key, applied onto the fcm1 its
// seeds train, must fail, and distinct keys must apply.
func TestFCMApplyRejectsRepeatedContextWhenTrained(t *testing.T) {
	trained := func() *FCM {
		p := NewFCM(1)
		for i, ev := range trainStream(400) {
			p.Update(0x400+ev.PC%32, ev.Value+uint64(i%3))
		}
		return p
	}
	for _, keys := range [][]uint64{{1, 1}, {3, 5, 3}, {5, 3, 5}, {4, 3, 4}, {5, 3, 4, 3}} {
		_, err := trained().ApplyDelta(bytes.NewReader(fcm1State(keys...)))
		if err == nil || !strings.Contains(err.Error(), "duplicate order-1 context at pc 0x40") {
			t.Errorf("keys %v: ApplyDelta onto a trained FCM = %v, want a duplicate-context error", keys, err)
		}
	}
	if _, err := trained().ApplyDelta(bytes.NewReader(fcm1State(5, 3, 4))); err != nil {
		t.Fatalf("keys [5 3 4]: %v", err)
	}
}
