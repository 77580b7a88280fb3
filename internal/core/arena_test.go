package core

import (
	"bytes"
	"testing"

	"repro/internal/arena"
)

// TestFCMArenaParity drives an FCM whose slabs live in mmap regions in
// lockstep with a heap-backed twin: every per-event hit and the final
// SaveState bytes must be identical. The threshold is lowered so even the
// test-sized slabs go through real mappings, and the workload is shaped to
// cross every growth path — pcTable and context slot-table rehashes, context
// and key slab appends, value-run relocation, and index promotion.
func TestFCMArenaParity(t *testing.T) {
	defer func(old int) { arena.MmapThreshold = old }(arena.MmapThreshold)
	arena.MmapThreshold = 64

	if err := SetSlabArena("mmap"); err != nil {
		t.Fatal(err)
	}
	mapped := NewFCM(3)
	if err := SetSlabArena("heap"); err != nil {
		t.Fatal(err)
	}
	heap := NewFCM(3)
	if heap.arena != nil {
		t.Fatal("heap store got an arena")
	}

	rng := uint64(1)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	for ev := 0; ev < 60000; ev++ {
		pc := next() % 200 * 4
		var v uint64
		switch next() % 4 {
		case 0:
			v = 42 // constant stretches
		case 1:
			v = uint64(ev) // monotone — degenerate context, forces promote
		default:
			v = next() % 8 // small alphabet — deep context reuse
		}
		pm, okm := mapped.Predict(pc)
		ph, okh := heap.Predict(pc)
		if okm != okh || (okm && pm != ph) {
			t.Fatalf("event %d pc %#x: mmap predicts %d,%v heap %d,%v", ev, pc, pm, okm, ph, okh)
		}
		mapped.Update(pc, v)
		heap.Update(pc, v)
	}

	if mapped.arena == nil || mapped.arena.Mapped() == 0 {
		t.Fatal("mmap store never mapped a region — test exercised nothing")
	}

	var bm, bh bytes.Buffer
	if err := mapped.SaveState(&bm); err != nil {
		t.Fatal(err)
	}
	if err := heap.SaveState(&bh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bm.Bytes(), bh.Bytes()) {
		t.Fatalf("SaveState bytes diverge: %d vs %d bytes", bm.Len(), bh.Len())
	}

	// LoadState swaps in a fresh store and must release the old mappings.
	if err := mapped.LoadState(bytes.NewReader(bh.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, ok := mapped.Predict(4); ok {
		if hv, hok := heap.Predict(4); !hok || hv != v {
			t.Fatalf("post-load Predict diverges: %d vs %d", v, hv)
		}
	}
}
