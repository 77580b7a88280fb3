package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// checkPagedSlack holds an FCM's byte account to the paged store's
// growth bound: each context and key slab reserves at most one page past
// what its live entries use, and the value slab at most one page past
// its live runs (each reserving its length rounded up to a power of two)
// and the vacated runs on its free lists, which must be reused. A slab
// that grows by doubling fails this right after a doubling, when it
// reserves twice its length.
// The incremental value counters are checked against a scan of every
// context.
func checkPagedSlack(t *testing.T, p *FCM, at string) {
	t.Helper()
	a := p.Account()
	var ctxPages, keyPages int64
	var live, held int64
	for o := range p.ords {
		st := &p.ords[o]
		ctxPages += pageLen * ctxBytes
		keyPages += pageLen * int64(o) * 8
		for pg := range st.pages() {
			for _, c := range st.page(pg) {
				live += int64(c.nvals)
				held += int64(runCap(int(c.nvals)))
			}
		}
	}
	if live*pairBytes != a.Vals.Used || (held-live)*pairBytes != a.RunSlack {
		t.Fatalf("%s: value account used %d slack %d, a scan of the contexts finds %d and %d",
			at, a.Vals.Used, a.RunSlack, live*pairBytes, (held-live)*pairBytes)
	}
	if extra := a.Ctxs.Reserved - a.Ctxs.Used; extra < 0 || extra > ctxPages {
		t.Fatalf("%s: context slabs reserve %d B past %d used, more than one page each (%d B)", at, extra, a.Ctxs.Used, ctxPages)
	}
	if extra := a.Keys.Reserved - a.Keys.Used; extra < 0 || extra > keyPages {
		t.Fatalf("%s: key slabs reserve %d B past %d used, more than one page each (%d B)", at, extra, a.Keys.Used, keyPages)
	}
	if a.RunSlack > a.Vals.Used {
		t.Fatalf("%s: runs reserve %d B past %d B of values, more than twice their length", at, a.RunSlack, a.Vals.Used)
	}
	if extra := a.Vals.Reserved - a.Vals.Used - a.RunSlack - a.FreeRuns; extra < 0 || extra > pageLen*pairBytes {
		t.Fatalf("%s: value slab reserves %d B past its runs and free lists, want at most one page (%d B)",
			at, extra, pageLen*pairBytes)
	}
	// Vacated runs are taken again: without reuse the free lists would
	// hold about half of what the runs ever reserved.
	if a.FreeRuns > a.Vals.Reserved/8+pageLen*pairBytes {
		t.Fatalf("%s: %d B of vacated runs wait on the free lists, more than an eighth of the value slab's %d B",
			at, a.FreeRuns, a.Vals.Reserved)
	}
}

// TestFCMPagedGrowthBound drives an FCM(3) cold over trainStream, and
// separately grows one loaded from a state saved halfway, checking the
// paged store's growth bound every 10K events.
func TestFCMPagedGrowthBound(t *testing.T) {
	evs := trainStream(300_000)
	cold := NewFCM(3)
	for i, ev := range evs {
		cold.Update(ev.PC, ev.Value)
		if i%10_000 == 9_999 {
			checkPagedSlack(t, cold, fmt.Sprintf("cold, %d events", i+1))
		}
	}

	src := NewFCM(3)
	for _, ev := range evs[:150_000] {
		src.Update(ev.PC, ev.Value)
	}
	warm := NewFCM(3)
	if err := warm.LoadState(bytes.NewReader(saveBytes(t, src))); err != nil {
		t.Fatal(err)
	}
	checkPagedSlack(t, warm, "loaded")
	for i, ev := range evs[150_000:] {
		warm.Update(ev.PC, ev.Value)
		if i%10_000 == 9_999 {
			checkPagedSlack(t, warm, fmt.Sprintf("warm, %d events past the load", i+1))
		}
	}
	if !bytes.Equal(saveBytes(t, warm), saveBytes(t, cold)) {
		t.Fatal("the loaded-and-grown FCM's state differs from the cold one's")
	}
}

// pageStream is a trace that spreads every order of an FCM(3) over
// several pages: PC 0 counts (a new value per event, so its order-0
// context's run outgrows a page and is promoted), PCs 4..60 draw from a
// wide alphabet (new contexts at every order), and PCs 64..124 from a
// small one (contexts that re-count and grow their runs through the
// small length classes).
func pageStream(rng *rand.Rand, n int, count *uint64) []struct{ PC, Value uint64 } {
	evs := make([]struct{ PC, Value uint64 }, n)
	for i := range evs {
		var pc, v uint64
		switch r := rng.Intn(8); {
		case r < 3:
			pc, v = 0, *count
			*count++
		case r < 6:
			pc, v = 4+uint64(rng.Intn(15))*4, uint64(rng.Intn(1<<16))
		default:
			pc, v = 64+uint64(rng.Intn(16))*4, uint64(rng.Intn(6))
		}
		evs[i] = struct{ PC, Value uint64 }{pc, v}
	}
	return evs
}

// lockstep drives flat and ref over evs, requiring every prediction to
// agree, and SaveState bytes to agree every saveEvery events and at the
// end; saveEvery 0 saves nothing, which leaves flat's change marks for a
// delta.
func lockstep(t *testing.T, flat *FCM, ref *refFCM, evs []struct{ PC, Value uint64 }, saveEvery int) {
	t.Helper()
	for i, ev := range evs {
		rv, rok := ref.Predict(ev.PC)
		fv, fok := flat.Predict(ev.PC)
		if rok != fok || rv != fv {
			t.Fatalf("event %d pc=%#x: reference (%d,%v) vs paged (%d,%v)", i, ev.PC, rv, rok, fv, fok)
		}
		ref.Update(ev.PC, ev.Value)
		flat.Update(ev.PC, ev.Value)
		if saveEvery > 0 && (i%saveEvery == saveEvery-1 || i == len(evs)-1) {
			if got, want := saveBytes(t, flat), refSaveBytes(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("SaveState diverged after %d events (%d vs %d bytes)", i+1, len(got), len(want))
			}
		}
	}
}

// TestFCMPageBoundaryParity holds the paged store to the map reference
// across page boundaries: contexts spanning at least three pages per
// order, a run longer than a page, ApplyDelta rewriting runs both in
// place and across length classes, and Reset followed by reuse.
func TestFCMPageBoundaryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var count uint64
	flat, ref := NewFCM(3), newRefFCM(3, true)
	lockstep(t, flat, ref, pageStream(rng, 40_000, &count), 5_000)
	for o := 1; o <= 3; o++ {
		if n := flat.ords[o].pages(); n < 3 {
			t.Fatalf("order %d spans %d context pages, want at least 3", o, n)
		}
	}
	h0 := flat.pcs[0].ctx0
	if c := flat.ords[0].ctx(h0); c.nvals <= pageLen {
		t.Fatalf("the counting PC's order-0 run holds %d values, want more than a page (%d)", c.nvals, pageLen)
	}

	// A root, more traffic, and a delta: applied to the root, the delta
	// rewrites runs that stayed in their length class in place and moves
	// the ones that outgrew it.
	root := saveBytes(t, flat)
	lockstep(t, flat, ref, pageStream(rng, 6_000, &count), 0)
	var delta bytes.Buffer
	if _, err := flat.SaveDelta(&delta); err != nil {
		t.Fatal(err)
	}
	got := NewFCM(3)
	if err := got.LoadState(bytes.NewReader(root)); err != nil {
		t.Fatal(err)
	}
	type runAt struct{ off, n int32 }
	before := make([][]runAt, len(got.ords))
	for o := range got.ords {
		for h := range got.ords[o].n {
			c := got.ords[o].ctx(h)
			before[o] = append(before[o], runAt{c.valOff, c.nvals})
		}
	}
	if _, err := got.ApplyDelta(bytes.NewReader(delta.Bytes())); err != nil {
		t.Fatal(err)
	}
	inPlace, moved := 0, 0
	for o := range got.ords {
		for h, b := range before[o] {
			c := got.ords[o].ctx(int32(h))
			switch {
			case c.nvals == b.n:
			case runCap(int(c.nvals)) == runCap(int(b.n)) && c.valOff == b.off:
				inPlace++
			case runCap(int(c.nvals)) != runCap(int(b.n)) && c.valOff != b.off:
				moved++
			default:
				t.Fatalf("order %d context %d: run of %d at %d became %d at %d", o, h, b.n, b.off, c.nvals, c.valOff)
			}
		}
	}
	if inPlace == 0 || moved == 0 {
		t.Fatalf("the delta rewrote %d runs in place and moved %d, want both", inPlace, moved)
	}
	if a := got.Account(); a.FreeRuns == 0 {
		t.Fatal("runs the delta moved left nothing on the free lists")
	}
	if g, w := saveBytes(t, got), refSaveBytes(t, ref); !bytes.Equal(g, w) {
		t.Fatalf("root + delta rebuilt %d bytes, reference holds %d", len(g), len(w))
	}
	lockstep(t, got, ref, pageStream(rng, 4_000, &count), 2_000)

	// Reset empties the store but keeps its pages, and the reused pages
	// carry a fresh stream exactly.
	pages := len(got.ords[3].ctxs)
	got.Reset()
	if a := got.Account(); a.Ctxs.Used != 0 || a.Vals.Used != 0 || len(got.ords[3].ctxs) != pages {
		t.Fatalf("after Reset: %+v with %d order-3 pages, want nothing used and %d pages kept", a, len(got.ords[3].ctxs), pages)
	}
	count = 0
	lockstep(t, got, newRefFCM(3, true), pageStream(rng, 30_000, &count), 5_000)
	if len(got.ords[3].ctxs) != pages {
		t.Fatalf("reuse after Reset grew order 3 from %d to %d pages", pages, len(got.ords[3].ctxs))
	}
}
