package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// This file keeps a copy of the original map-backed FCM (string context
// keys, per-order maps, pointer entries) as a behavioral reference, and
// replays deterministic traces through it and the flat slab-backed FCM
// in lockstep. The two must agree on every individual prediction, on the
// hit tallies, and — byte for byte — on SaveState output, which the
// reference writes in the same wire format with each PC's contexts in
// creation order.

// refFCM is the reference (pre-flat) implementation.
type refFCM struct {
	order int
	blend bool
	table map[uint64]*refFCMPC
}

type refFCMPC struct {
	hist    [MaxFCMOrder]uint64
	n       int
	ctxs    []map[string]*refFCMCtx
	created [][]string // per order: the context keys in the order they were created
	updates uint64
}

type refFCMCtx struct {
	vals []refFCMVal
	best int
}

type refFCMVal struct {
	value uint64
	count uint32
}

func newRefFCM(order int, blend bool) *refFCM {
	if order < 0 {
		order = 0
	}
	if order > MaxFCMOrder {
		order = MaxFCMOrder
	}
	return &refFCM{order: order, blend: blend, table: make(map[uint64]*refFCMPC)}
}

func (s *refFCMPC) ctxKey(o int) string {
	if o == 0 {
		return ""
	}
	var buf [8 * MaxFCMOrder]byte
	for i := 0; i < o; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], s.hist[s.n-o+i])
	}
	return string(buf[: 8*o : 8*o])
}

func (p *refFCM) Predict(pc uint64) (uint64, bool) {
	s, ok := p.table[pc]
	if !ok {
		return 0, false
	}
	v, _, ok := p.lookup(s)
	return v, ok
}

func (p *refFCM) lookup(s *refFCMPC) (value uint64, matched int, ok bool) {
	lowest := p.order
	if p.blend {
		lowest = 0
	}
	for o := p.order; o >= lowest; o-- {
		if o > s.n {
			continue
		}
		t := s.ctxs[o]
		if t == nil {
			continue
		}
		if c, hit := t[s.ctxKey(o)]; hit && len(c.vals) > 0 {
			return c.vals[c.best].value, o, true
		}
	}
	return 0, -1, false
}

func (p *refFCM) Update(pc uint64, value uint64) {
	s, ok := p.table[pc]
	if !ok {
		s = &refFCMPC{ctxs: make([]map[string]*refFCMCtx, p.order+1), created: make([][]string, p.order+1)}
		p.table[pc] = s
	}
	_, matched, hit := p.lookup(s)
	low := 0
	if hit && p.blend {
		low = matched
	}
	if !p.blend {
		low = p.order
	}
	for o := p.order; o >= low; o-- {
		if o > s.n {
			continue
		}
		t := s.ctxs[o]
		if t == nil {
			t = make(map[string]*refFCMCtx)
			s.ctxs[o] = t
		}
		key := s.ctxKey(o)
		c := t[key]
		if c == nil {
			c = &refFCMCtx{}
			t[key] = c
			s.created[o] = append(s.created[o], key)
		}
		c.add(value)
	}
	s.push(value, p.order)
	s.updates++
}

func (c *refFCMCtx) add(v uint64) {
	for i := range c.vals {
		if c.vals[i].value == v {
			c.vals[i].count++
			if c.vals[i].count >= c.vals[c.best].count {
				c.best = i
			}
			return
		}
	}
	c.vals = append(c.vals, refFCMVal{value: v, count: 1})
	if len(c.vals) == 1 || c.vals[c.best].count <= 1 {
		c.best = len(c.vals) - 1
	}
}

func (s *refFCMPC) push(v uint64, order int) {
	if order == 0 {
		return
	}
	if s.n < order {
		s.hist[s.n] = v
		s.n++
		return
	}
	copy(s.hist[:order-1], s.hist[1:order])
	s.hist[order-1] = v
}

func (p *refFCM) TableEntries() (static, total int) {
	static = len(p.table)
	for _, s := range p.table {
		for _, t := range s.ctxs {
			total += len(t)
		}
	}
	return static, total
}

func (p *refFCM) PCEntries() map[uint64]int {
	out := make(map[uint64]int, len(p.table))
	for pc, s := range p.table {
		n := 0
		for _, t := range s.ctxs {
			n += len(t)
		}
		out[pc] = n
	}
	return out
}

func (p *refFCM) SaveState(w io.Writer) error {
	return p.saveState(w, func(uint64, int, []string) {})
}

// saveState is SaveState with each (PC, order) context list, handed over
// in creation order, laid out by arrange, so tests can build valid states
// in other orders: the key order every checkpoint before creation-order
// saves holds, for one.
func (p *refFCM) saveState(w io.Writer, arrange func(pc uint64, o int, keys []string)) error {
	var e stateEncoder
	e.uvarint(uint64(p.order))
	blend := uint64(0)
	if p.blend {
		blend = 1
	}
	e.uvarint(blend)
	e.uvarint(uint64(len(p.table)))
	pcs := make([]uint64, 0, len(p.table))
	for pc := range p.table {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var prev uint64
	for _, pc := range pcs {
		s := p.table[pc]
		e.uvarint(pc - prev)
		prev = pc
		e.uvarint(uint64(s.n))
		for i := 0; i < s.n; i++ {
			e.uvarint(s.hist[i])
		}
		e.uvarint(s.updates)
		for o := 0; o <= p.order; o++ {
			t := s.ctxs[o]
			e.uvarint(uint64(len(t)))
			keys := slices.Clone(s.created[o])
			arrange(pc, o, keys)
			for _, key := range keys {
				e.bytes([]byte(key))
				c := t[key]
				e.uvarint(uint64(len(c.vals)))
				e.uvarint(uint64(c.best))
				for _, v := range c.vals {
					e.uvarint(v.value)
					e.uvarint(uint64(v.count))
				}
			}
		}
	}
	return e.flushTo(w)
}

// parityStream is a deterministic (pc, value) trace with strides,
// constants, short repeats and value noise wide enough to collide rolling
// signatures' low bits, over enough PCs to force table growth.
func parityStream(n int) []struct{ PC, Value uint64 } {
	return trainStream(n)
}

func refSaveBytes(t *testing.T, p *refFCM) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatalf("reference SaveState: %v", err)
	}
	return buf.Bytes()
}

// TestFCMFlatMatchesMapReference locksteps the flat FCM against the
// map-backed reference: every prediction, the hit counts, the occupancy
// reports and every SaveState byte must agree, across orders (including
// the paper's high-order sweep) and both blending modes.
func TestFCMFlatMatchesMapReference(t *testing.T) {
	configs := []struct {
		order int
		blend bool
	}{
		{0, true}, {1, true}, {2, true}, {3, true}, {4, true}, {8, true},
		{3, false}, {8, false},
	}
	evs := parityStream(8000)
	for _, cfg := range configs {
		name := fmt.Sprintf("order%d_blend%v", cfg.order, cfg.blend)
		t.Run(name, func(t *testing.T) {
			ref := newRefFCM(cfg.order, cfg.blend)
			flat := NewFCM(cfg.order)
			if !cfg.blend {
				flat = NewFCMNoBlend(cfg.order)
			}
			var refHits, flatHits uint64
			for i, ev := range evs {
				rv, rok := ref.Predict(ev.PC)
				fv, fok := flat.Predict(ev.PC)
				if rok != fok || rv != fv {
					t.Fatalf("event %d pc=%#x: reference (%d,%v) vs flat (%d,%v)",
						i, ev.PC, rv, rok, fv, fok)
				}
				if rok && rv == ev.Value {
					refHits++
				}
				if fok && fv == ev.Value {
					flatHits++
				}
				ref.Update(ev.PC, ev.Value)
				flat.Update(ev.PC, ev.Value)
				if i%2000 == 1999 {
					want := refSaveBytes(t, ref)
					got := saveBytes(t, flat)
					if !bytes.Equal(got, want) {
						t.Fatalf("SaveState diverged after %d events (%d vs %d bytes)",
							i+1, len(got), len(want))
					}
				}
			}
			if refHits != flatHits {
				t.Fatalf("hit counts diverged: reference %d, flat %d", refHits, flatHits)
			}
			rs, rt := ref.TableEntries()
			fs, ft := flat.TableEntries()
			if rs != fs || rt != ft {
				t.Fatalf("TableEntries diverged: reference (%d,%d), flat (%d,%d)", rs, rt, fs, ft)
			}
			refPer := ref.PCEntries()
			flatPer := flat.PCEntries()
			if len(refPer) != len(flatPer) {
				t.Fatalf("PCEntries size diverged: %d vs %d", len(refPer), len(flatPer))
			}
			for pc, n := range refPer {
				if flatPer[pc] != n {
					t.Fatalf("PCEntries[%#x]: reference %d, flat %d", pc, n, flatPer[pc])
				}
			}
		})
	}
}

// TestFCMFlatLoadsReferenceState proves the wire format is shared both
// ways: a state saved by the reference loads into a flat FCM (exercising
// the slab rebuild and signature recomputation), the restored predictor
// re-saves byte-identically, and it continues in lockstep with the
// reference that kept running.
func TestFCMFlatLoadsReferenceState(t *testing.T) {
	evs := parityStream(6000)
	for _, order := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			ref := newRefFCM(order, true)
			for _, ev := range evs[:3000] {
				ref.Update(ev.PC, ev.Value)
			}
			state := refSaveBytes(t, ref)

			flat := NewFCM(order)
			if err := flat.LoadState(bytes.NewReader(state)); err != nil {
				t.Fatalf("flat LoadState of reference state: %v", err)
			}
			if got := saveBytes(t, flat); !bytes.Equal(got, state) {
				t.Fatalf("flat re-save of reference state not byte-identical (%d vs %d bytes)",
					len(got), len(state))
			}
			for i, ev := range evs[3000:] {
				rv, rok := ref.Predict(ev.PC)
				fv, fok := flat.Predict(ev.PC)
				if rok != fok || rv != fv {
					t.Fatalf("post-restore event %d pc=%#x: reference (%d,%v) vs flat (%d,%v)",
						i, ev.PC, rv, rok, fv, fok)
				}
				ref.Update(ev.PC, ev.Value)
				flat.Update(ev.PC, ev.Value)
			}
			if got, want := saveBytes(t, flat), refSaveBytes(t, ref); !bytes.Equal(got, want) {
				t.Fatal("states diverged after restored replay")
			}
		})
	}
}

// growthPhase is phase ph of a trace whose PC set widens every phase and
// whose values drift between phases, so each phase adds contexts both on
// PCs seen before and on new ones. PCs are scrambled, so new PCs land
// between old ones in ascending order. Values vary in their low and high
// bytes, so key order and creation order disagree.
func growthPhase(ph int, rng *rand.Rand) []struct{ PC, Value uint64 } {
	evs := make([]struct{ PC, Value uint64 }, 600)
	npc := 8 * (ph + 1)
	for i := range evs {
		pc := (uint64(rng.Intn(npc)) * sigMult) >> 40
		var v uint64
		switch rng.Intn(4) {
		case 0:
			v = uint64(rng.Intn(4 + ph))
		case 1:
			v = uint64(rng.Intn(4+ph)) << 56
		case 2:
			v = rng.Uint64() >> uint(rng.Intn(64))
		default:
			v = uint64(i % 5)
		}
		evs[i] = struct{ PC, Value uint64 }{pc, v}
	}
	return evs
}

// TestFCMSaveWithGrowth saves one FCM again and again while its tables
// grow: traffic that adds contexts on old and new PCs alternates with
// SaveState calls, half of them right after a SaveDelta, in random order,
// with a LoadState round trip midway and a Reset later. Every save must
// equal, byte for byte, the save of a fresh FCM that replayed the same
// events since the last Reset: the creation order a save writes survives
// saves, deltas, a load and growth after it.
func TestFCMSaveWithGrowth(t *testing.T) {
	for _, order := range []int{1, 2, 3, 8} {
		for _, blend := range []bool{true, false} {
			t.Run(fmt.Sprintf("order%d_blend%v", order, blend), func(t *testing.T) {
				newFCM := func() *FCM {
					if blend {
						return NewFCM(order)
					}
					return NewFCMNoBlend(order)
				}
				rng := rand.New(rand.NewSource(int64(order)))
				p := newFCM()
				var prefix []struct{ PC, Value uint64 } // events since the last Reset
				saves := 0
				save := func() []byte {
					t.Helper()
					var buf bytes.Buffer
					var err error
					if rng.Intn(2) == 0 {
						_, err = p.SaveDelta(io.Discard)
					}
					if err == nil {
						err = p.SaveState(&buf)
					}
					if err != nil {
						t.Fatalf("save %d: %v", saves, err)
					}
					fresh := newFCM()
					for _, ev := range prefix {
						fresh.Update(ev.PC, ev.Value)
					}
					if want := saveBytes(t, fresh); !bytes.Equal(buf.Bytes(), want) {
						t.Fatalf("save %d after %d events differs from a fresh replay (%d vs %d bytes)",
							saves, len(prefix), buf.Len(), len(want))
					}
					saves++
					return buf.Bytes()
				}
				const phases = 12
				for ph := 0; ph < phases; ph++ {
					switch ph {
					case phases / 2:
						if err := p.LoadState(bytes.NewReader(save())); err != nil {
							t.Fatalf("LoadState: %v", err)
						}
					case phases * 3 / 4:
						p.Reset()
						prefix = prefix[:0]
					}
					for _, ev := range growthPhase(ph, rng) {
						p.Update(ev.PC, ev.Value)
						prefix = append(prefix, ev)
					}
					for n := rng.Intn(3); n > 0; n-- {
						save()
					}
				}
				save()
				if _, total := p.TableEntries(); total < 500 {
					t.Fatalf("trace too small to exercise the index: %d contexts", total)
				}
			})
		}
	}
}

// TestFCMLoadsNonCanonicalState is the compatibility test for states
// whose contexts are not in creation order: a key-sorted state, which is
// what every checkpoint written before creation-order saves holds, and
// one with every PC's contexts in reverse creation order. Each must load,
// re-save byte-identically, and then predict in lockstep with the
// reference, which kept running.
func TestFCMLoadsNonCanonicalState(t *testing.T) {
	evs := parityStream(6000)
	arrangements := []struct {
		name    string
		arrange func(pc uint64, o int, keys []string)
	}{
		{"key_sorted", func(_ uint64, _ int, keys []string) { sort.Strings(keys) }},
		{"reversed", func(_ uint64, _ int, keys []string) { slices.Reverse(keys) }},
	}
	for _, order := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			for _, a := range arrangements {
				t.Run(a.name, func(t *testing.T) {
					ref := newRefFCM(order, true)
					for _, ev := range evs[:3000] {
						ref.Update(ev.PC, ev.Value)
					}
					var state bytes.Buffer
					if err := ref.saveState(&state, a.arrange); err != nil {
						t.Fatal(err)
					}
					if bytes.Equal(state.Bytes(), refSaveBytes(t, ref)) {
						t.Fatal("test state is in creation order")
					}
					flat := NewFCM(order)
					if err := flat.LoadState(bytes.NewReader(state.Bytes())); err != nil {
						t.Fatalf("LoadState: %v", err)
					}
					if got := saveBytes(t, flat); !bytes.Equal(got, state.Bytes()) {
						t.Fatalf("re-save of the loaded state differs (%d vs %d bytes)", len(got), state.Len())
					}
					var refHits, flatHits uint64
					for i, ev := range evs[3000:] {
						rv, rok := ref.Predict(ev.PC)
						fv, fok := flat.Predict(ev.PC)
						if rok != fok || rv != fv {
							t.Fatalf("post-load event %d pc=%#x: reference (%d,%v) vs flat (%d,%v)",
								i, ev.PC, rv, rok, fv, fok)
						}
						if rok && rv == ev.Value {
							refHits++
						}
						if fok && fv == ev.Value {
							flatHits++
						}
						ref.Update(ev.PC, ev.Value)
						flat.Update(ev.PC, ev.Value)
					}
					if refHits != flatHits || refHits == 0 {
						t.Fatalf("hits after the load: reference %d, flat %d", refHits, flatHits)
					}
				})
			}
		})
	}
}

// fcm1State hand-builds a blended FCM(1) state holding one PC whose
// order-1 contexts have the given keys, written in the given order;
// context k predicts 100+k.
func fcm1State(keys ...uint64) []byte {
	var e stateEncoder
	e.uvarint(1)    // order
	e.uvarint(1)    // blend
	e.uvarint(1)    // PCs
	e.uvarint(0x40) // first PC delta
	e.uvarint(1)    // history length
	e.uvarint(7)
	e.uvarint(uint64(len(keys) + 1)) // updates
	e.uvarint(1)                     // order-0 context: one value, best 0
	e.uvarint(1)
	e.uvarint(0)
	e.uvarint(7)
	e.uvarint(uint64(len(keys)))
	e.uvarint(uint64(len(keys))) // order-1 contexts
	for _, k := range keys {
		e.le64(k)
		e.uvarint(1) // one value, best 0, count 1
		e.uvarint(0)
		e.uvarint(100 + k)
		e.uvarint(1)
	}
	return e.buf
}

// TestFCMLoadStateRejectsDuplicateContexts: a state that lists one
// context twice at the same PC and order is corrupt, wherever the repeat
// falls relative to the keys between. [3,5,3] repeats a key after an
// ascending step, [5,3,5] after a descending one, and [4,3,4] and
// [5,3,4,3] where no ascending run precedes the repeat, so a load that
// checks only the previous key, or only keys that arrive out of order,
// accepts one of them. Distinct keys out of key order ([5,3,4]) are
// valid and must save back as loaded.
func TestFCMLoadStateRejectsDuplicateContexts(t *testing.T) {
	for _, keys := range [][]uint64{{1, 1}, {3, 5, 3}, {5, 3, 5}, {4, 3, 4}, {5, 3, 4, 3}} {
		err := NewFCM(1).LoadState(bytes.NewReader(fcm1State(keys...)))
		if err == nil || !strings.Contains(err.Error(), "duplicate order-1 context") {
			t.Errorf("keys %v: LoadState = %v, want a duplicate-context error", keys, err)
		}
	}
	p := NewFCM(1)
	if err := p.LoadState(bytes.NewReader(fcm1State(5, 3, 4))); err != nil {
		t.Fatalf("keys [5 3 4]: %v", err)
	}
	if got, want := saveBytes(t, p), fcm1State(5, 3, 4); !bytes.Equal(got, want) {
		t.Fatalf("save after loading keys [5 3 4] is not as loaded:\n got %x\nwant %x", got, want)
	}
}

// TestFCMSavesContextsInCreationOrder: one PC whose order-1 contexts are
// created as keys 5, 3, 4 (by the values 5 3 4 7) saves them in that
// order, not in key order.
func TestFCMSavesContextsInCreationOrder(t *testing.T) {
	p := NewFCM(1)
	for _, v := range []uint64{5, 3, 4, 7} {
		p.Update(0x40, v)
	}
	var e stateEncoder
	// Order 1, blend, one PC at 0x40, history [7], 4 updates; its order-0
	// context holds 5 3 4 7 once each and predicts the last of them.
	for _, x := range []uint64{1, 1, 1, 0x40, 1, 7, 4, 1, 4, 3, 5, 1, 3, 1, 4, 1, 7, 1} {
		e.uvarint(x)
	}
	e.uvarint(3) // order-1 contexts, each holding the value that followed it once
	for _, c := range [][2]uint64{{5, 3}, {3, 4}, {4, 7}} {
		e.le64(c[0])
		for _, x := range []uint64{1, 0, c[1], 1} {
			e.uvarint(x)
		}
	}
	if got := saveBytes(t, p); !bytes.Equal(got, e.buf) {
		t.Fatalf("save of contexts created as 5, 3, 4:\n got %x\nwant %x", got, e.buf)
	}
}

// TestFCMFingerprintCollisionIsNotAHit: two order-1 contexts of one PC
// whose probe hashes share their upper 32 bits carry the same slot
// fingerprint and start their probes at the same slot, so looking up the
// second walks over the first's slot on a fingerprint match. Only the
// full key may decide: each key finds its own handle, and a key never
// inserted finds nothing.
func TestFCMFingerprintCollisionIsNotAHit(t *testing.T) {
	const pcIdx = 0
	hash := func(k uint64) uint64 { return ctxSlotHash(sigOf([]uint64{k}), pcIdx) }
	// Birthday search over 32-bit fingerprints: a pair is all but certain
	// within ~300K candidates, and the search is deterministic.
	seen := make(map[uint64]uint64, 1<<19)
	a, b := uint64(0), uint64(0)
	for k := uint64(1); k <= 1<<19; k++ {
		fp := hash(k) >> 32
		if j, ok := seen[fp]; ok {
			a, b = j, k
			break
		}
		seen[fp] = k
	}
	if b == 0 {
		t.Fatal("no fingerprint collision among the candidates")
	}
	var st fcmOrderStore
	ha, _ := st.findOrInsert(pcIdx, sigOf([]uint64{a}), []uint64{a})
	hb, _ := st.findOrInsert(pcIdx, sigOf([]uint64{b}), []uint64{b})
	if hash(a)>>st.shift != hash(b)>>st.shift {
		t.Fatalf("keys %d and %d share a fingerprint but not a probe start", a, b)
	}
	if got := st.find(pcIdx, sigOf([]uint64{a}), []uint64{a}); got != ha {
		t.Errorf("find(%d) = %d, want %d", a, got, ha)
	}
	if got := st.find(pcIdx, sigOf([]uint64{b}), []uint64{b}); got != hb {
		t.Errorf("find(%d) = %d, want %d", b, got, hb)
	}
	c := b + 1
	if got := st.find(pcIdx, sigOf([]uint64{c}), []uint64{c}); got != -1 {
		t.Errorf("find(%d) of a key never inserted = %d, want -1", c, got)
	}
}

// fcm1RunState hand-builds a blended FCM(1) state holding one PC, 0x400,
// with history [9]: its order-0 context holds 9 once, and its order-1
// context [9] holds vals with counts cnts and predicts ordinal best.
func fcm1RunState(vals, cnts []uint64, best uint64) []byte {
	var e stateEncoder
	// Order 1, blend, one PC at 0x400, history [9], 2 updates; one
	// order-0 context holding 9 once.
	for _, x := range []uint64{1, 1, 1, 0x400, 1, 9, 2, 1, 1, 0, 9, 1} {
		e.uvarint(x)
	}
	e.uvarint(1) // order-1 contexts
	e.le64(9)
	e.uvarint(uint64(len(vals)))
	e.uvarint(best)
	for i, v := range vals {
		e.uvarint(v)
		e.uvarint(cnts[i])
	}
	return e.buf
}

// TestFCMRejectsRepeatedValues: a context's run that lists a value twice
// is corrupt. No save writes one, and stepping a loaded one would split
// the bank path from the per-event path: a constant stretch bumps the
// predicted ordinal, a per-event update the first holding the value. A
// short run (9 twice, the second predicted) and a promoted one (16
// values, the first repeated last) must fail to load, and to apply as a
// delta, with an error that names the PC; distinct values load.
func TestFCMRejectsRepeatedValues(t *testing.T) {
	var long, ones []uint64
	for v := uint64(1); v <= fcmHashThreshold; v++ {
		long, ones = append(long, v), append(ones, 1)
	}
	long[len(long)-1] = 1
	for _, c := range []struct {
		name  string
		state []byte
	}{
		{"short", fcm1RunState([]uint64{9, 9}, []uint64{1, 3}, 1)},
		{"promoted", fcm1RunState(long, ones, 0)},
	} {
		err := NewFCM(1).LoadState(bytes.NewReader(c.state))
		if err == nil || !strings.Contains(err.Error(), "pc 0x400") {
			t.Errorf("%s: LoadState = %v, want an error naming pc 0x400", c.name, err)
		}
		p := NewFCM(1)
		if err := p.LoadState(bytes.NewReader(fcm1RunState([]uint64{9}, []uint64{4}, 0))); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ApplyDelta(bytes.NewReader(c.state)); err == nil || !strings.Contains(err.Error(), "pc 0x400") {
			t.Errorf("%s: ApplyDelta = %v, want an error naming pc 0x400", c.name, err)
		}
	}
	long[len(long)-1] = fcmHashThreshold
	for _, vals := range [][]uint64{{9, 5}, long} {
		state := fcm1RunState(vals, ones[:len(vals)], 0)
		p := NewFCM(1)
		if err := p.LoadState(bytes.NewReader(state)); err != nil {
			t.Fatalf("%d distinct values: %v", len(vals), err)
		}
		if got := saveBytes(t, p); !bytes.Equal(got, state) {
			t.Fatalf("%d distinct values: save is not as loaded", len(vals))
		}
	}
}

// TestFCMLoadIndexMatchesGrowth: LoadState builds each order's slot table
// in one pass, and each promoted context's value index at once, at the
// lengths that inserting one entry at a time gives a trained FCM. The
// loaded tables must have the trained source's lengths, so a restore
// retains the memory the trained predictor held, and every loaded
// context must be found from its PC and key.
func TestFCMLoadIndexMatchesGrowth(t *testing.T) {
	evs := trainStream(60_000)
	for _, fac := range []func() *FCM{
		func() *FCM { return NewFCM(1) },
		func() *FCM { return NewFCM(3) },
		func() *FCM { return NewFCMNoBlend(3) },
		func() *FCM { return NewFCM(8) },
	} {
		src := fac()
		t.Run(src.Name(), func(t *testing.T) {
			for _, ev := range evs {
				src.Update(ev.PC, ev.Value)
			}
			p := fac()
			if err := p.LoadState(bytes.NewReader(saveBytes(t, src))); err != nil {
				t.Fatal(err)
			}
			for o := 1; o <= p.order; o++ {
				st := &p.ords[o]
				if len(st.slots) != len(src.ords[o].slots) || st.n != src.ords[o].n {
					t.Fatalf("order %d: loaded %d contexts in %d slots, trained %d in %d",
						o, st.n, len(st.slots), src.ords[o].n, len(src.ords[o].slots))
				}
				for h := range st.n {
					key := st.key(o, h)
					if got := st.find(st.ctx(h).pcIdx, sigOf(key), key); got != h {
						t.Fatalf("order %d: context %d found as %d", o, h, got)
					}
				}
			}
			got, want := p.Account(), src.Account()
			if got.Slots != want.Slots || got.ValIndex != want.ValIndex {
				t.Fatalf("loaded slots %+v and value indexes %+v, trained %+v and %+v",
					got.Slots, got.ValIndex, want.Slots, want.ValIndex)
			}
			if p.blend && want.ValIndex.Reserved == 0 { // fcm3nb's order-3 runs stay short
				t.Fatal("no context was promoted")
			}
		})
	}
}
