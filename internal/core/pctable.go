package core

import (
	"slices"
	"unsafe"
)

// This file holds the flat storage primitives shared by every predictor in
// the package: an open-addressed PC index and the small helpers the
// slab-backed tables are built from. The design replaces the original
// map[uint64]*entry layout (one heap object and two pointer hops per PC)
// with a single probe into a power-of-two slot array that yields a dense
// int32 handle into a contiguous slab, so the hot predict/update path does
// no allocation and at most one dependent cache miss per level.

// pcTableMinSize is the initial slot-array size (power of two).
const pcTableMinSize = 16

// mix64 is the splitmix64 finalizer, the same mixer the serving tier uses
// to shard PCs: cheap, invertible and well distributed, so consecutive PCs
// from tight loops spread across slots.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pcSlot is one open-addressing slot. ref is the dense handle plus one, so
// the zero value means empty and PC 0 needs no special casing.
type pcSlot struct {
	pc  uint64
	ref int32
}

// pcTable maps a PC to the dense int32 handle of its slab entry: linear
// probing over a power-of-two slot array, grown at 3/4 load, with no
// deletion (predictor tables only grow; Reset clears wholesale). Handles
// are assigned in insertion order, so n is both the tracked-PC count and
// the handle the next insert will return — callers keep their slabs in
// lockstep by appending one entry per insert.
type pcTable struct {
	slots []pcSlot
	n     int
}

// lookup returns the handle for pc, if present.
func (t *pcTable) lookup(pc uint64) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := mix64(pc) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.pc == pc {
			return s.ref - 1, true
		}
	}
}

// insert adds pc (which must not be present) and returns its new handle.
func (t *pcTable) insert(pc uint64) int32 {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	h := int32(t.n)
	t.n++
	mask := uint64(len(t.slots) - 1)
	for i := mix64(pc) & mask; ; i = (i + 1) & mask {
		if t.slots[i].ref == 0 {
			t.slots[i] = pcSlot{pc: pc, ref: h + 1}
			return h
		}
	}
}

func (t *pcTable) grow() {
	size := pcTableMinSize
	if len(t.slots) > 0 {
		size = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = make([]pcSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		for i := mix64(s.pc) & mask; ; i = (i + 1) & mask {
			if t.slots[i].ref == 0 {
				t.slots[i] = s
				break
			}
		}
	}
}

// reset empties the table in place, keeping the slot array's capacity.
func (t *pcTable) reset() {
	clear(t.slots)
	t.n = 0
}

// len returns the number of tracked PCs.
func (t *pcTable) len() int { return t.n }

// bytes accounts the slot array: occupied slots used, every slot reserved.
func (t *pcTable) bytes() MemBytes {
	w := int64(unsafe.Sizeof(pcSlot{}))
	return MemBytes{Used: int64(t.n) * w, Reserved: int64(len(t.slots)) * w}
}

// onePerPC is the PCEntries implementation shared by every predictor whose
// slab holds exactly one entry per tracked PC.
func onePerPC(pcs []uint64) map[uint64]int {
	out := make(map[uint64]int, len(pcs))
	for _, pc := range pcs {
		out[pc] = 1
	}
	return out
}

// PCIndex maps PCs to dense int32 handles assigned in insertion order —
// the flat-slab primitive every predictor's storage is built on, exported
// so sibling packages (e.g. the predictability tracker) can keep their
// own parallel slabs in lockstep without reinventing the probe loop.
// The zero value is an empty index.
type PCIndex struct {
	t pcTable
}

// Lookup returns the handle for pc, if present.
func (x *PCIndex) Lookup(pc uint64) (int32, bool) { return x.t.lookup(pc) }

// Insert adds pc (which must not be present) and returns its new handle:
// always the current Len, so callers grow their slabs by one entry per
// insert.
func (x *PCIndex) Insert(pc uint64) int32 { return x.t.insert(pc) }

// Len returns the number of tracked PCs.
func (x *PCIndex) Len() int { return x.t.len() }

// Reset empties the index in place, keeping capacity.
func (x *PCIndex) Reset() { x.t.reset() }

// PCSet is an open-addressed set of PCs for hot-path membership tracking
// (the serving tier's unique-PC accounting): Add is allocation-free in
// steady state, unlike inserting into a map[uint64]struct{} on every
// event. The zero value is an empty set.
type PCSet struct {
	t pcTable
}

// Add inserts pc, reporting whether it was new.
func (s *PCSet) Add(pc uint64) bool {
	if _, ok := s.t.lookup(pc); ok {
		return false
	}
	s.t.insert(pc)
	return true
}

// Len returns the number of members.
func (s *PCSet) Len() int { return s.t.len() }

// AppendSorted appends the members in ascending order to dst.
func (s *PCSet) AppendSorted(dst []uint64) []uint64 {
	start := len(dst)
	for _, sl := range s.t.slots {
		if sl.ref != 0 {
			dst = append(dst, sl.pc)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// StateBytes returns the set's exact byte account.
func (s *PCSet) StateBytes() MemBytes { return s.t.bytes() }
