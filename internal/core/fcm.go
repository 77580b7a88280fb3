package core

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// MaxFCMOrder bounds the context length supported by FCM predictors. The
// paper sweeps orders 1..8 in Figure 11.
const MaxFCMOrder = 16

// FCM is the finite context method predictor of Section 2.2 as simulated
// in the paper: per static instruction it keeps, for every context (an
// ordered sequence of the most recent k values), exact occurrence counts
// of each value that followed that context. The predicted value is the one
// with the maximum count (most recently observed wins ties).
//
// An order-k FCM internally blends orders k..0 ("n different fcm
// predictors of orders 0 to n-1"): the prediction comes from the highest
// order whose context has been observed before, and updates follow the
// lazy-exclusion rule — only the matched order and all higher orders have
// their counts updated. Context matching is exact (full value sequences
// are compared, never just hashes), so there is no aliasing, exactly as
// the paper requires.
//
// Storage is flat and allocation-free in steady state: per-PC state lives
// in a slab indexed by one open-addressed pc→handle table, contexts live
// in per-order paged slabs indexed by open-addressed fingerprint tables,
// and each context's (value, count) list is one contiguous run of a
// shared paged slab (fcmpages.go). The context signature of every order is maintained incrementally
// — O(1) per order per event — instead of re-concatenating the history;
// a probe skips every slot whose fingerprint differs without touching the
// context slab, and a fingerprint hit is verified against the owning PC
// and the stored full context before it counts as a match. Each value and
// count is stored once, in the run: a context holds only the ordinal of
// its prediction.
//
// A save lists each PC's contexts of each order in the order they were
// created, which depends only on that PC's own value stream. Every step
// marks the PC it steps in its per-PC state, and every count update marks
// the contexts it changed inside the context entry it already writes;
// SaveDelta writes exactly those. Both saves clear the marks, so like
// Update they must run on the goroutine that owns the predictor.
type FCM struct {
	order int
	blend bool
	fcmStore
}

// fcmStore is the FCM's entire mutable storage, grouped so LoadState can
// build a fresh store and swap it in atomically.
type fcmStore struct {
	idx  pcTable
	pcs  []fcmPCState    // per-PC slab, indexed by pcTable handles
	ords []fcmOrderStore // per-order context stores, index 0..order
	vals fcmValSlab      // shared (value, count) runs; each context owns one
	vidx []fcmValIdx     // value→ordinal indexes of promoted (large) contexts
}

// fcmPCState is the per-static-instruction state: the value history, the
// incrementally maintained rolling signature of each order's context, the
// handle of this PC's order-0 context (-1 until first update) and the
// PC's change mark.
type fcmPCState struct {
	hist    [MaxFCMOrder]uint64     // most recent values, hist[0] oldest kept
	sigs    [MaxFCMOrder + 1]uint64 // sigs[o] = signature of the last o values (valid for o <= n)
	pc      uint64
	updates uint64 // total updates at this PC (for reporting)
	ctx0    int32  // handle of the order-0 context in ords[0], -1 if none
	n       int32  // how many history values are valid (<= order)
	changed bool   // stepped since the last save
}

// fcmOrderStore holds every context of one order across all PCs: an
// open-addressed slot table over a paged context slab, plus the exact
// context values (order values per context, in key pages parallel to the
// context pages) for alias-free verification. Each
// slot word packs the upper 32 bits of the context's probe hash (its
// fingerprint) above handle+1, and a probe starts at the hash's top
// log2(len(slots)) bits. A probe therefore reads the context slab only
// on a fingerprint match, and grow rehashes from the slot words alone.
// Order 0 uses only the slab (its single per-PC context is addressed
// directly through fcmPCState.ctx0).
//
// Context handles are assigned in insertion order, so a PC's contexts in
// handle order are its contexts in creation order, the order saves list
// them in. Within a steady-state run a PC re-touches its contexts in the
// order it first learned them — so the ctxs and keys slab offsets a run
// walks are monotonically increasing, which the hardware prefetcher
// follows.
type fcmOrderStore struct {
	slots []uint64              // fingerprint<<32 | context handle+1; 0 = empty
	shift uint8                 // 64 - log2(len(slots)): a probe starts at hash>>shift
	n     int32                 // contexts held; handle order = insertion order
	ctxs  []*[pageLen]fcmCtxEnt // context pages: handle h is ctxs[h>>pageShift][h&pageMask]
	keys  [][]uint64            // key pages, parallel to ctxs: pageLen contexts' keys, order values each
}

// fcmCtxEnt is one context's 20-byte entry: its owner (which a
// fingerprint hit is verified against), its value run in the shared slab
// and the run ordinal of its prediction. The prediction's value and count
// are read from the run at ordinal best, and the run's reserved length is
// always nvals rounded up to a power of two, so neither is stored here.
type fcmCtxEnt struct {
	pcIdx  int32 // owning PC handle
	valOff int32 // this context's run in the value slab (an fcmValSlab offset)
	nvals  int32 // live values in the run
	best   int32 // run ordinal of the prediction
	// vh is the value-index handle+1 once promoted (0 = scan the run),
	// with ctxDirty, its otherwise unused sign bit, set while the
	// context's counts have changed since the last save.
	vh int32
}

// ctxDirty is the change mark in fcmCtxEnt.vh: set by every count
// update, cleared by SaveState and SaveDelta.
const ctxDirty int32 = math.MinInt32

// fcmHashThreshold is the run length past which a context gets a
// value→ordinal hash index: short lists (the overwhelmingly common case)
// stay a sequential scan, while degenerate contexts that accumulate
// thousands of distinct values — e.g. a monotonically counting
// instruction — keep O(1) updates instead of an O(n) rescan per event.
const fcmHashThreshold = 16

// fcmValIdx is the open-addressed value→run-ordinal index of one promoted
// context. Ordinals are stable (runs only append; relocation preserves
// order), so the index never needs repair.
type fcmValIdx struct {
	slots []vhSlot
	n     int
}

type vhSlot struct {
	value uint64
	ref   int32 // run ordinal+1; 0 = empty
}

func (t *fcmValIdx) lookup(v uint64) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := mix64(v) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.value == v {
			return s.ref - 1, true
		}
	}
}

// insert records v at ord; when v is already present the first ordinal is
// kept, mirroring the find-first semantics of the linear scan.
func (t *fcmValIdx) insert(v uint64, ord int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := mix64(v) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			*s = vhSlot{value: v, ref: ord + 1}
			t.n++
			return
		}
		if s.value == v {
			return
		}
	}
}

func (t *fcmValIdx) grow() {
	size := 4 * fcmHashThreshold
	if len(t.slots) > 0 {
		size = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = make([]vhSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		for i := mix64(s.value) & mask; ; i = (i + 1) & mask {
			if t.slots[i].ref == 0 {
				t.slots[i] = s
				break
			}
		}
	}
}

// bytes accounts the index: occupied slots used, every slot reserved.
func (t *fcmValIdx) bytes() MemBytes {
	w := int64(unsafe.Sizeof(vhSlot{}))
	return MemBytes{Used: int64(t.n) * w, Reserved: int64(len(t.slots)) * w}
}

// Rolling signature: sig(v1..vo) = Σ sigMix(vi)·sigMult^(o-i) mod 2^64.
// Appending a value shifts every order's signature down one order —
// sig[o] becomes sig[o-1]·sigMult + sigMix(v) — so maintenance is one
// multiply-add per order with no removal term. Signatures only steer
// probing; matches are always verified against the stored context values.
const sigMult = 0x9E3779B97F4A7C15 // odd, high-entropy (2^64 / golden ratio)

func sigMix(v uint64) uint64 { return mix64(v) }

// sigOf computes the signature of a full context from scratch (LoadState
// and verification paths; the hot path rolls signatures incrementally).
func sigOf(vals []uint64) uint64 {
	var s uint64
	for _, v := range vals {
		s = s*sigMult + sigMix(v)
	}
	return s
}

// ctxSlotHash folds a context signature and its owning PC handle into the
// probe hash, so equal contexts of different PCs spread apart. Its top
// bits pick the probe start and its upper 32 bits are the slot
// fingerprint.
func ctxSlotHash(sig uint64, pcIdx int32) uint64 {
	return mix64(sig ^ uint64(pcIdx)*sigMult)
}

// NewFCM returns an order-k FCM with blending and lazy exclusion, the
// configuration the paper simulates as fcm1/fcm2/fcm3.
func NewFCM(order int) *FCM {
	if order < 0 {
		order = 0
	}
	if order > MaxFCMOrder {
		order = MaxFCMOrder
	}
	return &FCM{order: order, blend: true, fcmStore: newFCMStore(order)}
}

// NewFCMNoBlend returns an order-k FCM without blending: it predicts only
// on an exact order-k context match and updates only the order-k table.
// Used for the blending ablation.
func NewFCMNoBlend(order int) *FCM {
	p := NewFCM(order)
	p.blend = false
	return p
}

func newFCMStore(order int) fcmStore {
	return fcmStore{ords: make([]fcmOrderStore, order+1), vals: newValSlab()}
}

// Name implements Predictor.
func (p *FCM) Name() string {
	if !p.blend {
		return "fcm" + itoa(p.order) + "nb"
	}
	return "fcm" + itoa(p.order)
}

// Order returns the maximum context length of this FCM.
func (p *FCM) Order() int { return p.order }

// itoa converts a small non-negative int without importing strconv.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// find returns the handle of the context with the given exact values, or
// -1. The fingerprint narrows the probe; the owning PC and the stored
// values decide.
func (st *fcmOrderStore) find(pcIdx int32, sig uint64, key []uint64) int32 {
	if len(st.slots) == 0 {
		return -1
	}
	h := ctxSlotHash(sig, pcIdx)
	fp := h >> 32
	mask := uint64(len(st.slots) - 1)
	o := len(key)
	for i := h >> st.shift; ; i = (i + 1) & mask {
		w := st.slots[i]
		if w == 0 {
			return -1
		}
		if w>>32 != fp {
			continue
		}
		ref := int32(uint32(w)) - 1
		pg, i := ref>>pageShift, ref&pageMask
		if st.ctxs[pg][i].pcIdx != pcIdx {
			continue
		}
		k := st.keys[pg][int(i)*o : int(i)*o+o]
		match := true
		for j := range k {
			if k[j] != key[j] {
				match = false
				break
			}
		}
		if match {
			return ref
		}
	}
}

// findOrInsert returns the handle of the context with the given exact
// values, adding the context first when it is absent; added reports
// which. One probe serves both: a miss ends on the empty slot the new
// context takes.
func (st *fcmOrderStore) findOrInsert(pcIdx int32, sig uint64, key []uint64) (h int32, added bool) {
	if 4*(int(st.n)+1) > 3*len(st.slots) {
		st.grow()
	}
	hash := ctxSlotHash(sig, pcIdx)
	fp := hash >> 32
	mask := uint64(len(st.slots) - 1)
	o := len(key)
	for i := hash >> st.shift; ; i = (i + 1) & mask {
		w := st.slots[i]
		if w == 0 {
			h = st.push(pcIdx, key)
			st.slots[i] = fp<<32 | uint64(h+1)
			return h, true
		}
		if w>>32 != fp {
			continue
		}
		ref := int32(uint32(w)) - 1
		if st.ctx(ref).pcIdx == pcIdx && slices.Equal(st.key(o, ref), key) {
			return ref, false
		}
	}
}

// place stores slot word w in the first empty slot of its probe sequence.
// The word's top bits are its probe hash's, so it carries its own start.
func (st *fcmOrderStore) place(w uint64) {
	mask := uint64(len(st.slots) - 1)
	for i := w >> st.shift; ; i = (i + 1) & mask {
		if st.slots[i] == 0 {
			st.slots[i] = w
			return
		}
	}
}

// insertPlain appends a keyless context (order 0; addressed through
// fcmPCState.ctx0, never probed).
func (st *fcmOrderStore) insertPlain(pcIdx int32) int32 {
	return st.push(pcIdx, nil)
}

// grow doubles the slot table, rehashing from the slot words alone: a
// probe start is at most 32 bits of hash (handles are int32, so the
// table never needs more than 2^32 slots), all of them in the word's
// fingerprint.
func (st *fcmOrderStore) grow() {
	size := pcTableMinSize
	if len(st.slots) > 0 {
		size = 2 * len(st.slots)
	}
	old := st.slots
	st.slots = make([]uint64, size)
	st.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, w := range old {
		if w != 0 {
			st.place(w)
		}
	}
}

// Predict implements Predictor. With blending, the highest order whose
// context has been seen makes the prediction; without, only the full
// order is consulted.
func (p *FCM) Predict(pc uint64) (uint64, bool) {
	h, ok := p.idx.lookup(pc)
	if !ok {
		return 0, false
	}
	v, _, _, ok := p.lookupCtx(&p.pcs[h], h)
	return v, ok
}

// lookupCtx returns the predicted value, the order that matched and the
// matched context's handle within that order's store (so the following
// update does not re-probe it). Context slabs only append, so the handle
// stays valid across the update's own inserts.
func (p *FCM) lookupCtx(s *fcmPCState, pcIdx int32) (value uint64, matched int, hnd int32, ok bool) {
	lowest := p.order
	if p.blend {
		lowest = 0
	}
	for o := p.order; o >= lowest; o-- {
		if o > int(s.n) {
			continue
		}
		var h int32
		if o == 0 {
			if s.ctx0 < 0 {
				continue
			}
			h = s.ctx0
		} else {
			h = p.ords[o].find(pcIdx, s.sigs[o], s.hist[int(s.n)-o:s.n])
			if h < 0 {
				continue
			}
		}
		if c := p.ords[o].ctx(h); c.nvals > 0 {
			return p.vals.vals[c.valOff>>pageShift][c.valOff&pageMask+c.best], o, h, true
		}
	}
	return 0, -1, -1, false
}

// updateCtxs applies lazy exclusion for one observed value: the matched
// order (whose context handle lookupCtx already found) and all higher
// orders are updated, then the history and rolling signatures advance.
func (p *FCM) updateCtxs(s *fcmPCState, pcIdx int32, value uint64, matched int, mhnd int32, hit bool) {
	low := 0
	if hit && p.blend {
		low = matched
	}
	if !p.blend {
		low = p.order
	}
	for o := p.order; o >= low; o-- {
		if o > int(s.n) {
			continue
		}
		var hnd int32
		switch {
		case hit && o == matched:
			hnd = mhnd
		case o == 0:
			if s.ctx0 < 0 {
				s.ctx0 = p.ords[0].insertPlain(pcIdx)
			}
			hnd = s.ctx0
		default:
			hnd, _ = p.ords[o].findOrInsert(pcIdx, s.sigs[o], s.hist[int(s.n)-o:s.n])
		}
		p.addValue(p.ords[o].ctx(hnd), value)
	}
	s.pushValue(value, p.order)
	s.updates++
}

// Update implements Predictor, applying lazy exclusion: the matched order
// and all higher orders are updated; lower orders are left untouched.
func (p *FCM) Update(pc uint64, value uint64) {
	pcIdx, ok := p.idx.lookup(pc)
	if !ok {
		pcIdx = p.idx.insert(pc)
		p.pcs = append(p.pcs, fcmPCState{pc: pc, ctx0: -1})
	}
	s := &p.pcs[pcIdx]
	s.changed = true
	_, matched, mhnd, hit := p.lookupCtx(s, pcIdx)
	p.updateCtxs(s, pcIdx, value, matched, mhnd, hit)
}

// StepRun implements Predictor. Beyond the single pc-table probe per
// run, the fused loop walks the context orders once per event — the walk
// serves both the prediction and the update's matched-order/lazy-
// exclusion decision — where the Predict/Update pair walks them twice.
// Constant stretches (the paper's dominant sequence class) take a bulk
// fast path: once the history is saturated with the repeated value and
// the top-order context predicts it, the per-event step is a fixed
// point of the whole state except one counter, so the entire stretch
// collapses to a single counter addition.
func (p *FCM) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	pcIdx, ok := p.idx.lookup(pc)
	if !ok {
		pcIdx = p.idx.insert(pc)
		p.pcs = append(p.pcs, fcmPCState{pc: pc, ctx0: -1})
	}
	// p.pcs cannot grow during the run (only the insert above appends),
	// so the state pointer is loop-invariant.
	s := &p.pcs[pcIdx]
	s.changed = true
	order := p.order
	var n uint64
	k := 0
	for k < len(values) {
		v := values[k]
		pred, matched, mhnd, okc := p.lookupCtx(s, pcIdx)
		// Bulk precondition: the top order matched (which implies the
		// history is full), every history value equals v, and the
		// prediction is v. Each scalar step would then (a) hit, (b)
		// update only the matched top-order context under lazy
		// exclusion, (c) bump exactly its best value — runs hold
		// distinct values, so the scan lands on ordinal best —
		// and (d) push v into a history already saturated with v,
		// which leaves hist and every rolling signature bit-identical.
		// The whole constant prefix is therefore one count addition.
		if okc && pred == v && matched == order && histConst(s, v, order) {
			j := k
			for j < len(values) && values[j] == v {
				hits[j] = 1
				j++
			}
			m := j - k
			c := p.ords[order].ctx(mhnd)
			p.vals.cnts[c.valOff>>pageShift][c.valOff&pageMask+c.best] += uint32(m)
			c.vh |= ctxDirty
			s.updates += uint64(m)
			n += uint64(m)
			k = j
			continue
		}
		h := b2u8(okc && pred == v)
		hits[k] = h
		n += uint64(h)
		p.updateCtxs(s, pcIdx, v, matched, mhnd, okc)
		k++
	}
	return n
}

// histConst reports whether every valid history value equals v. Newest
// first, so a broken constant stretch exits on the first compare. The
// caller guarantees the history is full (a top-order context match
// implies s.n == order).
func histConst(s *fcmPCState, v uint64, order int) bool {
	for i := order - 1; i >= 0; i-- {
		if s.hist[i] != v {
			return false
		}
	}
	return true
}

// addValue increments the count for v in c's run (appending on first
// sight), maintains the max-count prediction and marks c changed; a
// just-updated value wins ties, giving most-recently-seen tie-breaks.
// Small runs are scanned; promoted contexts go through their value index.
func (st *fcmStore) addValue(c *fcmCtxEnt, v uint64) {
	vh := c.vh &^ ctxDirty
	c.vh |= ctxDirty
	if vh != 0 {
		if ord, ok := st.vidx[vh-1].lookup(v); ok {
			st.bumpValue(c, ord)
			return
		}
		st.appendNewValue(c, v)
		st.vidx[vh-1].insert(v, c.nvals-1)
		return
	}
	if c.nvals > 0 {
		for i, x := range st.vals.values(c.valOff, c.nvals) {
			if x == v {
				st.bumpValue(c, int32(i))
				return
			}
		}
	}
	st.appendNewValue(c, v)
	if c.nvals >= fcmHashThreshold {
		st.promote(c)
	}
}

// bumpValue increments the count at run ordinal ord and moves the
// prediction there when it now reaches the predicted value's count (the
// most-recently-updated tie-break).
func (st *fcmStore) bumpValue(c *fcmCtxEnt, ord int32) {
	cnts := st.vals.cnts[c.valOff>>pageShift]
	i := c.valOff & pageMask
	cnts[i+ord]++
	if cnts[i+ord] >= cnts[i+c.best] {
		c.best = ord
	}
}

// appendNewValue appends a first-sighting (count 1) value to c's run. A
// run is full exactly when nvals is 0 or a power of two.
func (st *fcmStore) appendNewValue(c *fcmCtxEnt, v uint64) {
	if c.nvals&(c.nvals-1) == 0 {
		st.relocateRun(c)
	}
	d, i := c.valOff>>pageShift, c.valOff&pageMask
	st.vals.vals[d][i+c.nvals] = v
	cnts := st.vals.cnts[d]
	cnts[i+c.nvals] = 1
	c.nvals++
	st.vals.live++
	if c.nvals == 1 || cnts[i+c.best] <= 1 {
		c.best = c.nvals - 1
	}
}

// promote builds c's value index from its current run. c has none yet,
// so its vh holds at most the change mark, which is kept.
func (st *fcmStore) promote(c *fcmCtxEnt) {
	h := int32(len(st.vidx))
	st.vidx = append(st.vidx, fcmValIdx{})
	st.indexRun(c, &st.vidx[h])
	c.vh |= h + 1
}

// indexRun inserts c's run into value index t, which must be empty.
func (st *fcmStore) indexRun(c *fcmCtxEnt, t *fcmValIdx) {
	for i, v := range st.vals.values(c.valOff, c.nvals) {
		t.insert(v, int32(i))
	}
}

// relocateRun moves c's full value run (nvals is 0 or a power of two,
// its reserved length) to a run of twice that length, taken from the
// free list of its class or carved from the value pages; the vacated run
// goes on the free list of its own class. Growth is amortized O(1) with
// no per-context allocation.
func (st *fcmStore) relocateRun(c *fcmCtxEnt) {
	newCap := max(2*c.nvals, 1)
	off := st.vals.alloc(newCap)
	if c.nvals > 0 {
		copy(st.vals.values(off, c.nvals), st.vals.values(c.valOff, c.nvals))
		copy(st.vals.counts(off, c.nvals), st.vals.counts(c.valOff, c.nvals))
		st.vals.release(c.valOff, c.nvals)
	}
	st.vals.held += int64(newCap - c.nvals)
	c.valOff = off
}

// runCap is the reserved length of an n-value run: n rounded up to a
// power of two, the capacity appendNewValue's doublings reach from empty
// and the reservation it assumes when it decides a run is full.
func runCap(n int) int {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len32(uint32(n-1))
}

// loadRun installs a decoded run (values vals, counts cnts) as c's run
// with the prediction at ordinal best, replacing any run c held; a loaded
// or applied run is saved state, so c is marked clean. A run of the same
// length class as c's current one is rewritten in place; otherwise the
// old run is vacated and the new one reserved once, at runCap. A promoted
// context's value index is rebuilt, and a run reaching fcmHashThreshold
// is promoted.
func (st *fcmStore) loadRun(c *fcmCtxEnt, vals []uint64, cnts []uint32, best int32) {
	c.best = best
	c.vh &^= ctxDirty
	n := int32(len(vals))
	if oldCap, newCap := int32(runCap(int(c.nvals))), int32(runCap(len(vals))); newCap != oldCap {
		st.vals.release(c.valOff, oldCap)
		c.valOff = st.vals.alloc(newCap)
		st.vals.held += int64(newCap - oldCap)
	}
	if n > 0 {
		copy(st.vals.values(c.valOff, n), vals)
		copy(st.vals.counts(c.valOff, n), cnts)
	}
	st.vals.live += int64(n - c.nvals)
	c.nvals = n
	if c.vh != 0 {
		t := &st.vidx[c.vh-1]
		clear(t.slots)
		t.n = 0
		st.indexRun(c, t)
	} else if c.nvals >= fcmHashThreshold {
		st.promote(c)
	}
}

// pushValue appends v to the value history and rolls every order's
// signature forward: the new last-o values are the old last-(o-1) values
// followed by v, so sig[o] derives from the old sig[o-1] in one
// multiply-add, independent of the order.
func (s *fcmPCState) pushValue(v uint64, order int) {
	if order == 0 {
		return
	}
	m := sigMix(v)
	for o := order; o >= 1; o-- {
		s.sigs[o] = s.sigs[o-1]*sigMult + m
	}
	if int(s.n) < order {
		s.hist[s.n] = v
		s.n++
		return
	}
	copy(s.hist[:order-1], s.hist[1:order])
	s.hist[order-1] = v
}

// Reset implements Resetter: every slab and table is emptied in place,
// keeping its capacity and pages.
func (p *FCM) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.vals.reset()
	clear(p.vidx) // hand the value indexes' slots to the collector
	p.vidx = p.vidx[:0]
	for i := range p.ords {
		st := &p.ords[i]
		clear(st.slots)
		st.n = 0
	}
}

// TableEntries implements Sized: static PCs tracked and total contexts
// across all orders.
func (p *FCM) TableEntries() (static, total int) {
	static = p.idx.len()
	for o := range p.ords {
		total += int(p.ords[o].n)
	}
	return static, total
}

// encodeCtx emits one context: value-list length, best ordinal, then the
// (value, count) pairs in exact list order — both the order and the best
// index steer future tie-breaks, so they are state, not presentation.
func (p *FCM) encodeCtx(e *stateEncoder, c *fcmCtxEnt) {
	e.uvarint(uint64(c.nvals))
	e.uvarint(uint64(c.best))
	if c.nvals == 0 {
		return
	}
	cnts := p.vals.counts(c.valOff, c.nvals)
	for i, v := range p.vals.values(c.valOff, c.nvals) {
		e.uvarint(v)
		e.uvarint(uint64(cnts[i]))
	}
}

// saveFlush is how many encoded bytes a save buffers before writing them
// out, so a large table streams through a bounded buffer.
const saveFlush = 64 << 10

// SaveState implements Stateful. Layout: order and blend flag (validated
// against the receiver's configuration on load), then one record per PC
// in ascending PC order: history, update count, and for each order 0..k
// the PC's contexts in the order they were created, each as its full key
// (8 little-endian bytes a value, streamed straight from the key slab)
// and its value run. Creation order depends only on the PC's own value
// stream, so equal per-PC histories save equal bytes however the PCs
// interleaved; and LoadState creates contexts in the order it reads
// them, so a loaded state re-saves as loaded.
func (p *FCM) SaveState(w io.Writer) error {
	_, err := p.save(w, false)
	return err
}

// SaveDelta implements DeltaStateful: SaveState's layout holding only the
// PCs stepped since the previous save, each with only the contexts whose
// counts changed since then.
func (p *FCM) SaveDelta(w io.Writer) (int, error) {
	return p.save(w, true)
}

// save writes SaveState's stream, or with delta set SaveDelta's, clears
// every change mark and returns how many contexts it wrote.
func (p *FCM) save(w io.Writer, delta bool) (int, error) {
	hs := make([]int32, 0, len(p.pcs))
	for h := range p.pcs {
		s := &p.pcs[h]
		if s.changed || !delta {
			hs = append(hs, int32(h))
		}
		s.changed = false
	}
	slices.SortFunc(hs, func(a, b int32) int { return cmp.Compare(p.pcs[a].pc, p.pcs[b].pc) })
	groups := make([]ctxGroups, len(p.ords))
	for o := range p.ords {
		groups[o] = p.ords[o].groupByPC(len(p.pcs), delta)
	}
	return p.writeRecords(w, hs, groups)
}

// ctxGroups is one order's contexts grouped by owning PC: PC h's are
// hs[at[h]:at[h+1]], in handle order, which is the order they were
// created.
type ctxGroups struct{ hs, at []int32 }

// groupByPC groups the order's contexts, or with changed set only those
// marked changed, by owning PC in a counting sort: one pass over the
// context pages lists them, counts each PC's and clears their marks, and
// a second pass over the list places them.
func (st *fcmOrderStore) groupByPC(npc int, changed bool) ctxGroups {
	var list []int32
	if !changed {
		list = make([]int32, 0, st.n)
	}
	at := make([]int32, npc+1)
	for pg := range st.pages() {
		base, page := int32(pg*pageLen), st.page(pg)
		for i := range page {
			if c := &page[i]; c.vh < 0 || !changed {
				c.vh &^= ctxDirty
				list = append(list, base+int32(i))
				at[c.pcIdx+1]++
			}
		}
	}
	for h := 1; h <= npc; h++ {
		at[h] += at[h-1]
	}
	hs := make([]int32, len(list))
	next := slices.Clone(at[:npc])
	for _, ch := range list {
		h := st.ctx(ch).pcIdx
		hs[next[h]] = ch
		next[h]++
	}
	return ctxGroups{hs: hs, at: at}
}

// writeRecords streams the header and the records of PCs hs, which must
// ascend by PC: each record's history and update count, then for every
// order the PC's contexts in groups, keys first. It returns how many
// contexts it wrote.
func (p *FCM) writeRecords(w io.Writer, hs []int32, groups []ctxGroups) (int, error) {
	var e stateEncoder
	e.uvarint(uint64(p.order))
	e.uvarint(uint64(b2u8(p.blend)))
	e.uvarint(uint64(len(hs)))
	records := 0
	var prev uint64
	for _, h := range hs {
		s := &p.pcs[h]
		e.uvarint(s.pc - prev)
		prev = s.pc
		e.uvarint(uint64(s.n))
		for i := 0; i < int(s.n); i++ {
			e.uvarint(s.hist[i])
		}
		e.uvarint(s.updates)
		for o := 0; o <= p.order; o++ {
			st, g := &p.ords[o], &groups[o]
			cs := g.hs[g.at[h]:g.at[h+1]]
			e.uvarint(uint64(len(cs)))
			for _, ch := range cs {
				if o > 0 {
					for _, kv := range st.key(o, ch) {
						e.le64(kv) // full concatenation: exactly 8*o bytes
					}
				}
				p.encodeCtx(&e, st.ctx(ch))
			}
			records += len(cs)
		}
		if len(e.buf) >= saveFlush {
			if err := e.flushTo(w); err != nil {
				return records, err
			}
			e.buf = e.buf[:0]
		}
	}
	return records, e.flushTo(w)
}

// checkHeader reads a state or delta stream's order and blend flag and
// rejects a stream cut from a differently configured FCM.
func (p *FCM) checkHeader(d *stateDecoder) error {
	order := d.count(MaxFCMOrder)
	blend := d.count(1)
	if d.err == nil && (int(order) != p.order || (blend == 1) != p.blend) {
		return errState(p.Name(), fmt.Errorf(
			"state is for order %d blend=%v, receiver wants order %d blend=%v",
			order, blend == 1, p.order, p.blend))
	}
	return nil
}

// fcmRun is a decoded value list: the values and their counts. Its
// storage is reused from context to context and grows only with decoded
// input.
type fcmRun struct {
	vals []uint64
	cnts []uint32
}

// decode reads one context's value list and best ordinal (encodeCtx's
// layout) into r.
func (r *fcmRun) decode(d *stateDecoder) int32 {
	nv := d.uvarint()
	best := d.uvarint()
	if d.err == nil && best >= max(nv, 1) {
		d.err = fmt.Errorf("best index %d out of range for %d values", best, nv)
	}
	r.vals, r.cnts = r.vals[:0], r.cnts[:0]
	for vi := uint64(0); vi < nv && d.err == nil; vi++ {
		value := d.uvarint()
		count := d.count(1<<32 - 1)
		r.vals = append(r.vals, value)
		r.cnts = append(r.cnts, uint32(count))
	}
	return int32(best)
}

// ApplyDelta implements DeltaStateful: each record finds or inserts its
// PC and replaces its history and update count, then finds or inserts
// each context (one probe) and replaces its run and best ordinal. A
// delta lists a PC's changed contexts in creation order, so the contexts
// it adds follow the PC's others in the order the saving predictor
// created them. The rolling signatures are rebuilt from the applied
// history, as LoadState does, and no change mark is set.
func (p *FCM) ApplyDelta(r io.Reader) (int, error) {
	d := newStateDecoder(r)
	if err := p.checkHeader(d); err != nil {
		return 0, err
	}
	npc := d.uvarint()
	records := 0
	var run fcmRun
	var key [MaxFCMOrder]uint64
	var pc uint64
	for i := uint64(0); i < npc && d.err == nil; i++ {
		next := pc + d.uvarint()
		if d.err == nil && i > 0 && next <= pc {
			return 0, errState(p.Name(), errDeltaOrder)
		}
		pc = next
		var hist [MaxFCMOrder]uint64
		n := int(d.count(uint64(p.order)))
		for j := 0; j < n; j++ {
			hist[j] = d.uvarint()
		}
		updates := d.uvarint()
		if d.err != nil {
			break
		}
		pcIdx, ok := p.idx.lookup(pc)
		if !ok {
			pcIdx = p.idx.insert(pc)
			p.pcs = append(p.pcs, fcmPCState{pc: pc, ctx0: -1})
		}
		s := &p.pcs[pcIdx]
		s.hist, s.n, s.updates = hist, int32(n), updates
		for o := 1; o <= n; o++ {
			s.sigs[o] = sigOf(hist[n-o : n])
		}
		for o := 0; o <= p.order && d.err == nil; o++ {
			nctx := d.uvarint()
			if d.err == nil && o == 0 && nctx > 1 {
				return 0, errState(p.Name(), fmt.Errorf("pc %#x has %d order-0 contexts", pc, nctx))
			}
			for k := uint64(0); k < nctx && d.err == nil; k++ {
				for j := 0; j < o; j++ {
					key[j] = d.le64()
				}
				best := run.decode(d)
				if d.err != nil {
					break
				}
				st := &p.ords[o]
				var hnd int32
				if o == 0 {
					if s.ctx0 < 0 {
						s.ctx0 = st.insertPlain(pcIdx)
					}
					hnd = s.ctx0
				} else {
					hnd, _ = st.findOrInsert(pcIdx, sigOf(key[:o]), key[:o])
				}
				p.loadRun(st.ctx(hnd), run.vals, run.cnts, best)
				records++
			}
		}
	}
	if err := d.expectEOF(); err != nil {
		return 0, errState(p.Name(), err)
	}
	return records, nil
}

// LoadState implements Stateful. The stream is decoded into a fresh store
// (swapped in only on success, so a failed load leaves the receiver
// untouched) and the rolling signatures are rebuilt from each restored
// history. Each context is created in the order it is read, so the state
// re-saves as loaded, in creation order or in any other; one probe per
// context inserts it and rejects one its PC already lists at that order.
// Each value list is decoded into reused scratch and reserved once
// (loadRun), so a load is one linear pass and leaves no change mark.
func (p *FCM) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	if err := p.checkHeader(d); err != nil {
		return err
	}
	npc := d.uvarint()
	store := newFCMStore(p.order)
	var run fcmRun
	var key [MaxFCMOrder]uint64
	var pc uint64
	for i := uint64(0); i < npc && d.err == nil; i++ {
		pc += d.uvarint()
		if d.err != nil {
			break
		}
		if _, dup := store.idx.lookup(pc); dup {
			return errState(p.Name(), errDuplicatePC(pc))
		}
		pcIdx := store.idx.insert(pc)
		store.pcs = append(store.pcs, fcmPCState{pc: pc, ctx0: -1})
		s := &store.pcs[pcIdx]
		s.n = int32(d.count(uint64(p.order)))
		for j := 0; j < int(s.n); j++ {
			s.hist[j] = d.uvarint()
		}
		s.updates = d.uvarint()
		for o := 1; o <= int(s.n); o++ {
			s.sigs[o] = sigOf(s.hist[int(s.n)-o : s.n])
		}
		for o := 0; o <= p.order && d.err == nil; o++ {
			nctx := d.uvarint()
			for k := uint64(0); k < nctx && d.err == nil; k++ {
				var hnd int32
				if o == 0 {
					if s.ctx0 >= 0 {
						return errState(p.Name(), fmt.Errorf("pc %#x has %d order-0 contexts", pc, nctx))
					}
					s.ctx0 = store.ords[0].insertPlain(pcIdx)
					hnd = s.ctx0
				} else {
					for j := 0; j < o; j++ {
						key[j] = d.le64()
					}
					if d.err != nil {
						break
					}
					var added bool
					if hnd, added = store.ords[o].findOrInsert(pcIdx, sigOf(key[:o]), key[:o]); !added {
						return errState(p.Name(), fmt.Errorf("duplicate order-%d context at pc %#x", o, pc))
					}
				}
				best := run.decode(d)
				if d.err == nil {
					store.loadRun(store.ords[o].ctx(hnd), run.vals, run.cnts, best)
				}
			}
		}
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	p.fcmStore = store
	return nil
}

// PCEntries implements PerPC: contexts held across all orders per static
// instruction.
func (p *FCM) PCEntries() map[uint64]int {
	out := make(map[uint64]int, len(p.pcs))
	for i := range p.pcs {
		n := 0
		if p.pcs[i].ctx0 >= 0 {
			n = 1
		}
		out[p.pcs[i].pc] = n
	}
	for o := 1; o <= p.order; o++ {
		st := &p.ords[o]
		for pg := range st.pages() {
			for _, c := range st.page(pg) {
				out[p.pcs[c.pcIdx].pc]++
			}
		}
	}
	return out
}

// CountTable is a standalone order-k finite context model over an
// arbitrary symbol sequence, mirroring the frequency tables of the paper's
// Figure 1. It is independent of the Predictor machinery and is used by
// the fig1 experiment, tests and examples.
type CountTable struct {
	order  int
	counts map[string]map[string]int
}

// NewCountTable returns an empty order-k context model for symbols.
func NewCountTable(order int) *CountTable {
	if order < 0 {
		order = 0
	}
	return &CountTable{order: order, counts: make(map[string]map[string]int)}
}

// Train observes the sequence, counting for each length-k context the
// symbols that immediately follow it.
func (m *CountTable) Train(symbols []string) {
	for i := m.order; i < len(symbols); i++ {
		ctx := join(symbols[i-m.order : i])
		row := m.counts[ctx]
		if row == nil {
			row = make(map[string]int)
			m.counts[ctx] = row
		}
		row[symbols[i]]++
	}
}

// Predict returns the max-count symbol following the sequence's final
// context, and whether that context has been observed.
func (m *CountTable) Predict(symbols []string) (string, bool) {
	if len(symbols) < m.order {
		return "", false
	}
	ctx := join(symbols[len(symbols)-m.order:])
	row, ok := m.counts[ctx]
	if !ok || len(row) == 0 {
		return "", false
	}
	best, bestN := "", -1
	for s, n := range row {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	return best, true
}

// Count returns the observation count for symbol following context.
func (m *CountTable) Count(context []string, symbol string) int {
	return m.counts[join(context)][symbol]
}

// Contexts returns the number of distinct contexts observed.
func (m *CountTable) Contexts() int { return len(m.counts) }

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + "\x00"
	}
	return out
}
