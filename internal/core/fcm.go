package core

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/arena"
	"repro/internal/core/kernel"
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
// in per-order slabs indexed by open-addressed fingerprint tables, and
// each context's (value, count) list is one contiguous run of a shared
// slab. The context signature of every order is maintained incrementally
// — O(1) per order per event — instead of re-concatenating the history;
// a probe skips every slot whose fingerprint differs without touching the
// context slab, and a fingerprint hit is verified against the owning PC
// and the stored full context before it counts as a match. Each value and
// count is stored once, in the run: a context holds only the ordinal of
// its prediction.
//
// Saves (SaveState, SaveStateChunks) bring each order's canonical-order
// index up to date, so like Update they mutate the predictor and must
// run on the goroutine that owns it.
type FCM struct {
	order int
	blend bool
	fcmStore
	// saveOrder caches the ascending-PC handle order between saves;
	// revalidated against the current pcs slab on every use, so
	// LoadState's store swap and Reset invalidate it naturally.
	saveOrder []int32
	// addBuf and endsBuf are syncCanon's reused scratch, shared by
	// every order: the contexts appended since the previous save,
	// grouped by owning PC, and each PC's group end.
	addBuf, endsBuf []int32
}

// fcmStore is the FCM's entire mutable storage, grouped so LoadState can
// build a fresh store and swap it in atomically. Every pointer-free slab
// (pcs, vals, the per-order ctxs/keys/slots, the pcTable slots) grows
// through the store's arena; vidx stays on the heap because fcmValIdx
// holds a slice header the collector must see.
type fcmStore struct {
	idx   pcTable
	pcs   []fcmPCState    // per-PC slab, indexed by pcTable handles
	ords  []fcmOrderStore // per-order context stores, index 0..order
	vals  []fcmVal        // shared (value, count) slab; each context owns one contiguous run
	vidx  []fcmValIdx     // value→ordinal indexes of promoted (large) contexts
	arena *arena.Arena    // slab backing; nil = plain heap
}

// fcmPCState is the per-static-instruction state: the value history, the
// incrementally maintained rolling signature of each order's context, and
// the handle of this PC's order-0 context (-1 until first update).
type fcmPCState struct {
	hist    [MaxFCMOrder]uint64     // most recent values, hist[0] oldest kept
	sigs    [MaxFCMOrder + 1]uint64 // sigs[o] = signature of the last o values (valid for o <= n)
	pc      uint64
	updates uint64 // total updates at this PC (for reporting)
	ctx0    int32  // handle of the order-0 context in ords[0], -1 if none
	n       int32  // how many history values are valid (<= order)
}

// fcmOrderStore holds every context of one order across all PCs: an
// open-addressed slot table over a context slab, plus the exact context
// values (order values per context) for alias-free verification. Each
// slot word packs the upper 32 bits of the context's probe hash (its
// fingerprint) above handle+1, and a probe starts at the hash's top
// log2(len(slots)) bits. A probe therefore reads the context slab only
// on a fingerprint match, and grow rehashes from the slot words alone.
// Order 0 uses only the slab (its single per-PC context is addressed
// directly through fcmPCState.ctx0).
//
// Context handles are assigned in insertion order, and within a
// steady-state run a PC re-touches its contexts in the order it first
// learned them — so the ctxs and keys slab offsets a run walks are
// monotonically increasing, which the hardware prefetcher follows.
type fcmOrderStore struct {
	slots []uint64     // fingerprint<<32 | context handle+1; 0 = empty
	shift uint8        // 64 - log2(len(slots)): a probe starts at hash>>shift
	ctxs  []fcmCtxEnt  // context slab; handle order = insertion order
	keys  []uint64     // exact context values, order per context
	arena *arena.Arena // shared with the owning fcmStore; nil = heap
	canon fcmCanon     // canonical save order, kept across saves
}

// fcmCanon is one order's canonical-order index: the handles of the
// contexts indexed so far, bucketed by owning PC handle, each bucket in
// canonical key order — bucket h is hs[starts[h]:starts[h+1]]. Context
// handles only append between resets and a context never changes owner,
// so the index stays valid as the table grows; syncCanon merges in just
// the contexts appended since the previous save.
type fcmCanon struct {
	hs     []int32
	starts []int32
	// loaded is the number of leading handles LoadState appended in
	// canonical order that are not indexed yet: their index is the
	// identity permutation, so the first save after a restore sorts only
	// what was added since.
	loaded int
}

// fcmCtxEnt is one context's 20-byte entry: its owner (which a
// fingerprint hit is verified against), its value run in the shared slab
// and the run ordinal of its prediction. The prediction's value and count
// are read from vals[valOff+best], and the run's reserved length is
// always nvals rounded up to a power of two, so neither is stored here.
type fcmCtxEnt struct {
	pcIdx  int32 // owning PC handle
	valOff int32 // start of this context's run in the value slab
	nvals  int32 // live values in the run
	best   int32 // run ordinal of the prediction
	vh     int32 // value-index handle+1 once promoted; 0 = scan the run
}

// fcmVal is one (value, count) pair. Contexts typically see very few
// distinct values, so lists are scanned linearly; keeping each context's
// list as one contiguous slab run makes that scan sequential in memory. A
// full run relocates to a doubled run at the slab's end (the hole is left
// behind), so growth is amortized O(1) with no per-context allocation.
type fcmVal struct {
	value uint64
	count uint32
}

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
func (t *fcmValIdx) insert(a *arena.Arena, v uint64, ord int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow(a)
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

func (t *fcmValIdx) grow(a *arena.Arena) {
	size := 4 * fcmHashThreshold
	if len(t.slots) > 0 {
		size = 2 * len(t.slots)
	}
	old := t.slots
	t.slots = arena.Make[vhSlot](a, size)
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
	arena.Free(a, old)
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
	st := fcmStore{
		ords:  make([]fcmOrderStore, order+1),
		arena: arena.New(slabArenaKind),
	}
	st.idx.arena = st.arena
	for i := range st.ords {
		st.ords[i].arena = st.arena
	}
	return st
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
		if st.ctxs[ref].pcIdx != pcIdx {
			continue
		}
		k := st.keys[int(ref)*o : int(ref+1)*o]
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

// insert adds a context (which must not be present) and returns its
// handle.
func (st *fcmOrderStore) insert(pcIdx int32, sig uint64, key []uint64) int32 {
	if 4*(len(st.ctxs)+1) > 3*len(st.slots) {
		st.grow()
	}
	h := int32(len(st.ctxs))
	st.ctxs = append(arena.Grow(st.arena, st.ctxs, 1), fcmCtxEnt{pcIdx: pcIdx})
	st.keys = append(arena.Grow(st.arena, st.keys, len(key)), key...)
	st.place(ctxSlotHash(sig, pcIdx)>>32<<32 | uint64(h+1))
	return h
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
	h := int32(len(st.ctxs))
	st.ctxs = append(arena.Grow(st.arena, st.ctxs, 1), fcmCtxEnt{pcIdx: pcIdx})
	return h
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
	st.slots = arena.Make[uint64](st.arena, size)
	st.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, w := range old {
		if w != 0 {
			st.place(w)
		}
	}
	arena.Free(st.arena, old)
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
		if c := &p.ords[o].ctxs[h]; c.nvals > 0 {
			return p.vals[c.valOff+c.best].value, o, h, true
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
			st := &p.ords[o]
			key := s.hist[int(s.n)-o : s.n]
			hnd = st.find(pcIdx, s.sigs[o], key)
			if hnd < 0 {
				hnd = st.insert(pcIdx, s.sigs[o], key)
			}
		}
		p.addValue(&p.ords[o].ctxs[hnd], value)
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
		p.pcs = append(arena.Grow(p.arena, p.pcs, 1), fcmPCState{pc: pc, ctx0: -1})
	}
	s := &p.pcs[pcIdx]
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
		p.pcs = append(arena.Grow(p.arena, p.pcs, 1), fcmPCState{pc: pc, ctx0: -1})
	}
	// p.pcs cannot grow during the run (only the insert above appends),
	// so the state pointer is loop-invariant.
	s := &p.pcs[pcIdx]
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
			m := kernel.ConstPrefixLen(values[k:], v)
			c := &p.ords[order].ctxs[mhnd]
			p.vals[c.valOff+c.best].count += uint32(m)
			s.updates += uint64(m)
			kernel.SetOnes(hits[k : k+m])
			n += uint64(m)
			k += m
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
// sight) and maintains the max-count prediction; a just-updated value
// wins ties, giving most-recently-seen tie-breaks. Small runs are
// scanned; promoted contexts go through their value index.
func (st *fcmStore) addValue(c *fcmCtxEnt, v uint64) {
	if c.vh != 0 {
		if ord, ok := st.vidx[c.vh-1].lookup(v); ok {
			st.bumpValue(c, ord)
			return
		}
		st.appendNewValue(c, v)
		st.vidx[c.vh-1].insert(st.arena, v, c.nvals-1)
		return
	}
	run := st.vals[c.valOff : c.valOff+c.nvals]
	for i := range run {
		if run[i].value == v {
			st.bumpValue(c, int32(i))
			return
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
	e := &st.vals[c.valOff+ord]
	e.count++
	if e.count >= st.vals[c.valOff+c.best].count {
		c.best = ord
	}
}

// appendNewValue appends a first-sighting (count 1) value to c's run. A
// run is full exactly when nvals is 0 or a power of two.
func (st *fcmStore) appendNewValue(c *fcmCtxEnt, v uint64) {
	if c.nvals&(c.nvals-1) == 0 {
		st.relocateRun(c)
	}
	st.vals[c.valOff+c.nvals] = fcmVal{value: v, count: 1}
	c.nvals++
	if c.nvals == 1 || st.vals[c.valOff+c.best].count <= 1 {
		c.best = c.nvals - 1
	}
}

// promote builds c's value index from its current run.
func (st *fcmStore) promote(c *fcmCtxEnt) {
	h := int32(len(st.vidx))
	st.vidx = append(st.vidx, fcmValIdx{})
	t := &st.vidx[h]
	run := st.vals[c.valOff : c.valOff+c.nvals]
	for i := range run {
		t.insert(st.arena, run[i].value, int32(i))
	}
	c.vh = h + 1
}

// relocateRun moves c's full value run (nvals is 0 or a power of two,
// its reserved length) to a doubled reservation at the slab's end. The
// old run becomes a dead hole; total slab size stays within a small
// constant factor of the live values, the standard doubling amortization.
func (st *fcmStore) relocateRun(c *fcmCtxEnt) {
	newCap := max(2*c.nvals, 1)
	// Grow first, then copy within the (possibly relocated) slab: the
	// source run must be re-sliced from the grown slab, because Grow
	// unmaps a replaced arena backing as soon as it has copied it.
	st.vals = arena.Grow(st.arena, st.vals, int(newCap))
	off := int32(len(st.vals))
	st.vals = append(st.vals, st.vals[c.valOff:c.valOff+c.nvals]...)
	for i := c.nvals; i < newCap; i++ {
		st.vals = append(st.vals, fcmVal{})
	}
	c.valOff = off
}

// loadRun installs a decoded (value, count) list as c's run with the
// prediction at ordinal best. The run is reserved once, at the next power
// of two: the capacity appendNewValue's doublings reach from empty, which
// is the reservation appendNewValue assumes when it decides a run is
// full, and stays within twice the values the input held.
func (st *fcmStore) loadRun(c *fcmCtxEnt, run []fcmVal, best int32) {
	c.best = best
	if len(run) == 0 {
		return
	}
	capRun := 1 << bits.Len32(uint32(len(run)-1))
	st.vals = arena.Grow(st.arena, st.vals, capRun)
	c.valOff, c.nvals = int32(len(st.vals)), int32(len(run))
	st.vals = append(st.vals, run...)
	st.vals = append(st.vals, make([]fcmVal, capRun-len(run))...)
	if c.nvals >= fcmHashThreshold {
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
// keeping capacity.
func (p *FCM) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.vals = p.vals[:0]
	p.vidx = p.vidx[:0]
	for i := range p.ords {
		st := &p.ords[i]
		clear(st.slots)
		st.ctxs = st.ctxs[:0]
		st.keys = st.keys[:0]
		st.canon = fcmCanon{hs: st.canon.hs[:0], starts: st.canon.starts[:0]}
	}
}

// TableEntries implements Sized: static PCs tracked and total contexts
// across all orders.
func (p *FCM) TableEntries() (static, total int) {
	static = p.idx.len()
	for o := range p.ords {
		total += len(p.ords[o].ctxs)
	}
	return static, total
}

// sortedPCHandles returns the per-PC slab handles ordered by ascending PC.
func (p *FCM) sortedPCHandles() []int32 {
	hs := make([]int32, len(p.pcs))
	for i := range hs {
		hs[i] = int32(i)
	}
	slices.SortFunc(hs, func(a, b int32) int { return cmp.Compare(p.pcs[a].pc, p.pcs[b].pc) })
	return hs
}

// key returns the values of context h of order o.
func (st *fcmOrderStore) key(o int, h int32) []uint64 {
	return st.keys[int(h)*o : (int(h)+1)*o]
}

// canonCmp orders two equal-length context keys by their canonical wire
// form: the lexicographic order of the little-endian concatenation of
// their values, which per value is the numeric order of the
// byte-reversed value.
func canonCmp(ka, kb []uint64) int {
	for j := range ka {
		if x, y := bits.ReverseBytes64(ka[j]), bits.ReverseBytes64(kb[j]); x != y {
			return cmp.Compare(x, y)
		}
	}
	return 0
}

// syncCanon brings order o's canonical index up to date: the contexts
// appended since the previous save are counting-sorted by owning PC
// handle, each PC's group is sorted by canonical key, and the groups are
// merged into their buckets in one backward pass that rewrites hs in
// place. A save therefore sorts only what was added since the last one;
// the rest of its cost is linear.
func (p *FCM) syncCanon(o int) {
	st := &p.ords[o]
	c := &st.canon
	npc := len(p.pcs)
	if c.loaded > 0 {
		// LoadState inserted PCs in ascending order and each PC's
		// contexts in key order: the index is the identity.
		c.hs = slices.Grow(c.hs[:0], c.loaded)[:c.loaded]
		for h := range c.hs {
			c.hs[h] = int32(h)
		}
		c.starts = append(c.starts[:0], make([]int32, npc+1)...)
		for i := range st.ctxs[:c.loaded] {
			c.starts[st.ctxs[i].pcIdx+1]++
		}
		for h := 1; h <= npc; h++ {
			c.starts[h] += c.starts[h-1]
		}
		c.loaded = 0
	}
	n, nctx := len(c.hs), len(st.ctxs)
	for len(c.starts) <= npc {
		c.starts = append(c.starts, int32(n)) // PCs added since: empty buckets
	}
	if n == nctx {
		return
	}
	// Group the new handles by owning PC: PC h's group is
	// add[ends[h-1]:ends[h]] (ends[-1] = 0), each in key order.
	ends := append(p.endsBuf[:0], make([]int32, npc)...)
	for i := range st.ctxs[n:] {
		ends[st.ctxs[n+i].pcIdx]++
	}
	for h := 1; h < npc; h++ {
		ends[h] += ends[h-1]
	}
	add := append(p.addBuf[:0], make([]int32, nctx-n)...)
	for h := nctx - 1; h >= n; h-- {
		pcIdx := st.ctxs[h].pcIdx
		ends[pcIdx]--
		add[ends[pcIdx]] = int32(h)
	}
	// The scatter left ends[h] at the start of group h; shift it to the end.
	copy(ends, ends[1:])
	ends[npc-1] = int32(len(add))
	byKey := func(a, b int32) int { return canonCmp(st.key(o, a), st.key(o, b)) }
	for h, lo := 0, int32(0); h < npc; h++ {
		if ends[h]-lo > 1 {
			slices.SortFunc(add[lo:ends[h]], byKey)
		}
		lo = ends[h]
	}
	p.addBuf, p.endsBuf = add, ends
	c.hs = append(c.hs, add...) // final length; the merge rewrites the tail
	// Walk the buckets from the last PC down. j counts the new contexts
	// not yet placed, all owned by PCs <= h, so bucket h moves up by j:
	// its old range [lo, hi) merges with add[k:j] into [lo+k, hi+j).
	// Writes land at or above every unread old slot. Once j is 0 the
	// lower buckets are already in place.
	j := len(add)
	for h := npc - 1; j > 0; h-- {
		lo, hi := int(c.starts[h]), int(c.starts[h+1])
		k := 0
		if h > 0 {
			k = int(ends[h-1])
		}
		c.starts[h+1] = int32(hi + j)
		r := hi // old entries [lo, r) unplaced; the next write goes to r+j-1
		for j > k {
			if r > lo && canonCmp(st.key(o, c.hs[r-1]), st.key(o, add[j-1])) > 0 {
				r--
				c.hs[r+j] = c.hs[r]
			} else {
				j--
				c.hs[r+j] = add[j]
			}
		}
		copy(c.hs[lo+k:r+k], c.hs[lo:r])
	}
}

// encodeCtx emits one context: value-list length, best ordinal, then the
// (value, count) pairs in exact list order — both the order and the best
// index steer future tie-breaks, so they are state, not presentation.
func (p *FCM) encodeCtx(e *stateEncoder, c *fcmCtxEnt) {
	e.uvarint(uint64(c.nvals))
	e.uvarint(uint64(c.best))
	for _, v := range p.vals[c.valOff : c.valOff+c.nvals] {
		e.uvarint(v.value)
		e.uvarint(uint64(v.count))
	}
}

// SaveState implements Stateful. Layout: order and blend flag (validated
// against the receiver's configuration on load), then sorted per-PC
// records: history, update count, and for each order 0..k the context
// table with full-concatenation keys in lexicographic order, streamed
// straight from the key slab with no intermediate string. The encoding is
// byte-identical to the original map-backed implementation's. It is the
// chunked save written out whole.
func (p *FCM) SaveState(w io.Writer) error { return WriteChunks(p, w) }

// cachedPCHandles is sortedPCHandles with the saveOrder cache: a cached
// permutation of matching length that is still strictly ascending over
// the current pcs slab is the sorted order (the slab is append-only
// between resets), so a linear pass revalidates it.
func (p *FCM) cachedPCHandles() []int32 {
	hs := p.saveOrder
	if len(hs) == len(p.pcs) {
		ok := true
		var prev uint64
		for i, h := range hs {
			pc := p.pcs[h].pc
			if i > 0 && pc <= prev {
				ok = false
				break
			}
			prev = pc
		}
		if ok {
			return hs
		}
	}
	hs = p.sortedPCHandles()
	p.saveOrder = hs
	return hs
}

// SaveStateChunks implements ChunkedStateful: the exact SaveState stream
// split at per-PC record boundaries. Each order's canonical index is
// brought up to date first (syncCanon), after which every PC's contexts
// are one bucket read, so a delta save that skips clean chunks pays
// only for the contexts added since the previous save and the records
// it encodes.
func (p *FCM) SaveStateChunks(cs *ChunkSaver) error {
	var hdr stateEncoder
	hdr.uvarint(uint64(p.order))
	blend := uint64(0)
	if p.blend {
		blend = 1
	}
	hdr.uvarint(blend)
	hdr.uvarint(uint64(len(p.pcs)))
	for o := 1; o <= p.order; o++ {
		p.syncCanon(o)
	}
	return chunkedSave(cs, p.cachedPCHandles(), func(h int32) uint64 { return p.pcs[h].pc }, &hdr,
		func(e *stateEncoder, h int32) {
			s := &p.pcs[h]
			e.uvarint(uint64(s.n))
			for i := 0; i < int(s.n); i++ {
				e.uvarint(s.hist[i])
			}
			e.uvarint(s.updates)
			if s.ctx0 >= 0 {
				e.uvarint(1)
				p.encodeCtx(e, &p.ords[0].ctxs[s.ctx0])
			} else {
				e.uvarint(0)
			}
			for o := 1; o <= p.order; o++ {
				st := &p.ords[o]
				bucket := st.canon.hs[st.canon.starts[h]:st.canon.starts[h+1]]
				e.uvarint(uint64(len(bucket)))
				for _, ch := range bucket {
					for _, kv := range st.keys[int(ch)*o : (int(ch)+1)*o] {
						e.le64(kv) // full concatenation: exactly 8*o bytes
					}
					p.encodeCtx(e, &st.ctxs[ch])
				}
			}
		})
}

// LoadState implements Stateful. The stream is decoded into a fresh store
// (swapped in only on success, so a failed load leaves the receiver
// untouched) and the rolling signatures are rebuilt from each restored
// history. Each context key is compared with its predecessor at the same
// PC and order before it is inserted: an equal key is a duplicate, and
// while a PC's keys keep ascending a greater key cannot be one, so the
// table is probed for duplicates only after an out-of-order key. An
// order whose input arrived in canonical order seeds its save index as
// the identity; any other valid input is re-sorted in full by the next
// save, so SaveState stays canonical either way. Each value list is
// decoded into reused scratch and reserved once (loadRun), so a
// canonical load is one linear pass.
func (p *FCM) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	order := d.count(MaxFCMOrder)
	blend := d.count(1)
	if d.err == nil && (int(order) != p.order || (blend == 1) != p.blend) {
		return errState(p.Name(), fmt.Errorf(
			"state is for order %d blend=%v, receiver wants order %d blend=%v",
			order, blend == 1, p.order, p.blend))
	}
	npc := d.uvarint()
	store := newFCMStore(p.order)
	var unsorted [MaxFCMOrder + 1]bool
	var run []fcmVal // one context's value list; grows only with decoded input
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
		store.pcs = append(arena.Grow(store.arena, store.pcs, 1), fcmPCState{pc: pc, ctx0: -1})
		s := &store.pcs[pcIdx]
		s.n = int32(d.count(uint64(p.order)))
		for j := 0; j < int(s.n); j++ {
			s.hist[j] = d.uvarint()
		}
		s.updates = d.uvarint()
		for o := 1; o <= int(s.n); o++ {
			s.sigs[o] = sigOf(s.hist[int(s.n)-o : s.n])
		}
		var key [MaxFCMOrder]uint64
		for o := 0; o <= p.order && d.err == nil; o++ {
			nctx := d.uvarint()
			ascending := true // this PC's order-o keys so far are strictly ascending
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
					sig := sigOf(key[:o])
					st := &store.ords[o]
					dup := false
					if k > 0 {
						// A PC's contexts of one order get consecutive
						// handles, so the previous key is the last one stored.
						c := canonCmp(st.keys[len(st.keys)-o:], key[:o])
						dup = c == 0
						if c > 0 {
							ascending, unsorted[o] = false, true
						}
					}
					if dup || (!ascending && st.find(pcIdx, sig, key[:o]) >= 0) {
						return errState(p.Name(), fmt.Errorf("duplicate order-%d context at pc %#x", o, pc))
					}
					hnd = st.insert(pcIdx, sig, key[:o])
				}
				nv := d.uvarint()
				best := d.uvarint()
				if d.err == nil && best >= max(nv, 1) {
					return errState(p.Name(), fmt.Errorf("best index %d out of range for %d values", best, nv))
				}
				run = run[:0]
				for vi := uint64(0); vi < nv && d.err == nil; vi++ {
					value := d.uvarint()
					count := d.count(1<<32 - 1)
					run = append(run, fcmVal{value: value, count: uint32(count)})
				}
				if d.err == nil {
					store.loadRun(&store.ords[o].ctxs[hnd], run, int32(best))
				}
			}
		}
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	for o := 1; o <= p.order; o++ {
		if !unsorted[o] {
			store.ords[o].canon.loaded = len(store.ords[o].ctxs)
		}
	}
	p.fcmStore.arena.Release()
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
		for i := range p.ords[o].ctxs {
			out[p.pcs[p.ords[o].ctxs[i].pcIdx].pc]++
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
