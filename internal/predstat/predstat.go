// Package predstat measures how predictable each PC's value stream is,
// online and in bounded memory, so realized predictor hit rates can be
// judged against the ceiling the stream itself permits. It is the running
// system's version of the paper's central question: not "how often did the
// predictor hit" but "how often could any predictor of this class hit".
//
// A Tracker attaches to a core.Bank through the RunObserver hook and sees
// every same-PC value run together with each predictor's hit bits. Per PC
// it maintains, on the flat-slab idiom of internal/core:
//
//   - order-0..MaxOrder conditional entropy rates and ideal-predictor
//     ceilings, via fixed-size count tables over a small per-PC symbol
//     alphabet (values past MaxValues collapse into an escape symbol,
//     contexts past MaxCtx into an overflow counter — estimates degrade
//     gracefully instead of memory growing);
//   - last-value and stride ceilings (the fraction of events an oracle
//     last-value or stride predictor would hit);
//   - a trailing value window labeled with the paper's sequence classes
//     (internal/seqclass) at report time;
//   - realized per-predictor hit counts, so the gap between ceiling and
//     reality is attributable per predictor.
//
// When a PC's ceiling-gap (best ceiling minus best realized accuracy)
// crosses Config.GapThreshold, the Tracker fires a stage-ring event — the
// "this stream deserves a different predictor" signal a future
// meta-chooser consumes.
//
// ObserveRun is allocation-free in steady state; reporting (Report, and
// Report.Merge across shard trackers) is cold-path.
package predstat

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seqclass"
)

// Config bounds a Tracker's memory and tunes its reporting. The zero
// value is usable: Normalize fills in defaults.
type Config struct {
	// MaxOrder is the highest conditional-entropy order tracked
	// (order-0..MaxOrder tables are kept per PC). Default 3, max 6.
	MaxOrder int
	// MaxValues bounds the per-PC symbol alphabet; further distinct
	// values collapse into one escape symbol. Default 16, max 64.
	MaxValues int
	// MaxCtx bounds the count-table slots per (pc, order); rounded up to
	// a power of two. Contexts past 3/4 fill are tallied in an overflow
	// counter instead of tabled. Default 64.
	MaxCtx int
	// Window is the number of trailing values kept per PC for sequence-
	// class labeling. Default 16.
	Window int
	// PredNames are the bank's predictor names in bank order. If empty,
	// names p0..pN-1 are synthesized from the first observed run.
	PredNames []string
	// GapThreshold is the ceiling-gap at which a stage-ring event fires
	// (with hysteresis: the latch clears at 0.8×). Default 0.25.
	GapThreshold float64
	// MinEvents is the per-PC event count below which a PC is neither
	// reported nor gap-checked. Default 256.
	MinEvents uint64
	// Ring, when non-nil, receives "predictability_gap" events.
	Ring *obs.Ring
	// Shard is stamped on ring events.
	Shard int
}

// Normalize fills defaults and clamps bounds so that every context key
// fits in a uint64. It returns the normalized copy.
func (c Config) Normalize() Config {
	if c.MaxOrder <= 0 {
		c.MaxOrder = 3
	}
	if c.MaxOrder > 6 {
		c.MaxOrder = 6
	}
	if c.MaxValues <= 0 {
		c.MaxValues = 16
	}
	if c.MaxValues > 64 {
		c.MaxValues = 64
	}
	if c.MaxCtx <= 0 {
		c.MaxCtx = 64
	}
	c.MaxCtx = pow2ceil(c.MaxCtx)
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Window > 1<<14 {
		c.Window = 1 << 14
	}
	if c.GapThreshold <= 0 {
		c.GapThreshold = 0.25
	}
	if c.MinEvents == 0 {
		c.MinEvents = 256
	}
	return c
}

func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mix64 is the splitmix64 finalizer (same mixer as internal/core).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ctxEntry is one count-table slot: a base-(MaxValues+1) packed
// (context, next-symbol) key and its occurrence count. n==0 means empty.
type ctxEntry struct {
	key uint64
	n   uint32
}

// symSlot is one symbol-dictionary slot; ref is sym+1 so the zero value
// is empty and value 0 needs no special casing.
type symSlot struct {
	val uint64
	ref uint16
}

// pcState is the scalar per-PC state slab entry.
type pcState struct {
	events    uint64 // values observed at this PC
	prev      uint64 // last value
	prevDelta uint64 // last delta (valid when events >= 2)
	lvHits    uint64 // events where value == previous value
	stHits    uint64 // events where delta == previous delta
	winLen    uint16
	winPos    uint16
	syms      uint16 // assigned symbols (escape excluded)
	gapHigh   bool   // gap-event hysteresis latch
}

// Tracker is a bounded-memory streaming predictability estimator over
// every PC it observes. It is single-writer: ObserveRun and Report must
// not race (in serve each shard owns one Tracker).
type Tracker struct {
	cfg     Config
	base    uint64 // MaxValues+1; symbol MaxValues is the escape
	dictCap int    // power of two, ≥ 2×MaxValues
	npred   int
	names   []string

	idx  core.PCIndex
	pcs  []uint64   // handle → pc
	st   []pcState  // handle → scalars
	win  []uint64   // handle*Window trailing-value ring
	dict []symSlot  // handle*dictCap value→symbol slots
	hist []uint16   // handle*MaxOrder most-recent-first symbols
	cnt  []ctxEntry // handle*(MaxOrder+1)*MaxCtx count tables
	fill []uint32   // handle*(MaxOrder+1) occupied slots per table
	ovf  []uint64   // handle*(MaxOrder+1) events lost to full tables

	predHits []uint64 // handle*npred realized hits

	events  uint64     // total observed events
	scratch []ctxEntry // reused by orderStats
	winBuf  []uint64   // reused window linearization
}

// NewTracker builds a Tracker; cfg is normalized first.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.Normalize()
	t := &Tracker{
		cfg:     cfg,
		base:    uint64(cfg.MaxValues) + 1,
		dictCap: pow2ceil(2 * cfg.MaxValues),
		scratch: make([]ctxEntry, 0, cfg.MaxCtx),
		winBuf:  make([]uint64, cfg.Window),
	}
	if len(cfg.PredNames) > 0 {
		t.setPreds(cfg.PredNames)
	}
	return t
}

// Config returns the tracker's normalized configuration.
func (t *Tracker) Config() Config { return t.cfg }

// PredNames returns the predictor names in bank order.
func (t *Tracker) PredNames() []string { return t.names }

// Events returns the total number of observed events.
func (t *Tracker) Events() uint64 { return t.events }

// PCs returns the number of tracked PCs.
func (t *Tracker) PCs() int { return t.idx.Len() }

func (t *Tracker) setPreds(names []string) {
	t.npred = len(names)
	t.names = append([]string(nil), names...)
}

// handle returns the slab handle for pc, growing every slab in lockstep
// on first sight.
func (t *Tracker) handle(pc uint64) int32 {
	if h, ok := t.idx.Lookup(pc); ok {
		return h
	}
	h := t.idx.Insert(pc)
	t.pcs = append(t.pcs, pc)
	t.st = append(t.st, pcState{})
	t.win = append(t.win, make([]uint64, t.cfg.Window)...)
	t.dict = append(t.dict, make([]symSlot, t.dictCap)...)
	t.hist = append(t.hist, make([]uint16, t.cfg.MaxOrder)...)
	t.cnt = append(t.cnt, make([]ctxEntry, (t.cfg.MaxOrder+1)*t.cfg.MaxCtx)...)
	t.fill = append(t.fill, make([]uint32, t.cfg.MaxOrder+1)...)
	t.ovf = append(t.ovf, make([]uint64, t.cfg.MaxOrder+1)...)
	t.predHits = append(t.predHits, make([]uint64, t.npred)...)
	return h
}

// symbolFor maps a value to this PC's symbol, assigning the next free
// symbol on first sight and the escape symbol once the alphabet is full.
func (t *Tracker) symbolFor(h int32, v uint64) uint16 {
	slots := t.dict[int(h)*t.dictCap : (int(h)+1)*t.dictCap]
	mask := uint64(t.dictCap - 1)
	for i := mix64(v) & mask; ; i = (i + 1) & mask {
		sl := &slots[i]
		if sl.ref == 0 {
			s := &t.st[h]
			if int(s.syms) >= t.cfg.MaxValues {
				return uint16(t.cfg.MaxValues) // escape
			}
			sym := s.syms
			s.syms++
			sl.val = v
			sl.ref = sym + 1
			return sym
		}
		if sl.val == v {
			return sl.ref - 1
		}
	}
}

// bump counts one occurrence of key in the (handle, order) count table,
// spilling to the overflow counter when the table is 3/4 full.
func (t *Tracker) bump(h int32, order int, key uint64) {
	tb := t.table(h, order)
	mask := uint64(t.cfg.MaxCtx - 1)
	fi := int(h)*(t.cfg.MaxOrder+1) + order
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		e := &tb[i]
		if e.n == 0 {
			if 4*int(t.fill[fi]+1) > 3*t.cfg.MaxCtx {
				t.ovf[fi]++
				return
			}
			e.key = key
			e.n = 1
			t.fill[fi]++
			return
		}
		if e.key == key {
			e.n++
			return
		}
	}
}

func (t *Tracker) table(h int32, order int) []ctxEntry {
	off := (int(h)*(t.cfg.MaxOrder+1) + order) * t.cfg.MaxCtx
	return t.cnt[off : off+t.cfg.MaxCtx]
}

// ObserveRun implements core.RunObserver: values is one same-PC run in
// stream order, hits one row per predictor. Allocation-free once a PC's
// slabs exist.
func (t *Tracker) ObserveRun(pc uint64, values []uint64, hits [][]byte) {
	if len(values) == 0 {
		return
	}
	if t.npred == 0 && len(hits) > 0 {
		names := make([]string, len(hits))
		for i := range names {
			names[i] = fmt.Sprintf("p%d", i)
		}
		t.setPreds(names)
	}
	h := t.handle(pc)
	for i := 0; i < t.npred && i < len(hits); i++ {
		sum := uint64(0)
		for _, b := range hits[i] {
			sum += uint64(b)
		}
		t.predHits[int(h)*t.npred+i] += sum
	}

	s := &t.st[h]
	before := s.events
	K := t.cfg.MaxOrder
	hist := t.hist[int(h)*K : (int(h)+1)*K]
	win := t.win[int(h)*t.cfg.Window : (int(h)+1)*t.cfg.Window]
	for _, v := range values {
		if s.events >= 1 {
			if v == s.prev {
				s.lvHits++
			}
			delta := v - s.prev
			if s.events >= 2 && delta == s.prevDelta {
				s.stHits++
			}
			s.prevDelta = delta
		}
		s.prev = v

		win[s.winPos] = v
		s.winPos++
		if int(s.winPos) == t.cfg.Window {
			s.winPos = 0
		}
		if int(s.winLen) < t.cfg.Window {
			s.winLen++
		}

		sym := t.symbolFor(h, v)
		ctx, mul := uint64(0), uint64(1)
		for o := 0; o <= K; o++ {
			if uint64(o) <= s.events {
				t.bump(h, o, ctx*t.base+uint64(sym))
			}
			if o < K {
				ctx += uint64(hist[o]) * mul
				mul *= t.base
			}
		}
		for j := K - 1; j > 0; j-- {
			hist[j] = hist[j-1]
		}
		if K > 0 {
			hist[0] = sym
		}
		s.events++
	}
	t.events += uint64(len(values))

	if t.cfg.Ring != nil && s.events >= t.cfg.MinEvents && before>>8 != s.events>>8 {
		t.checkGap(h, s)
	}
}

// orderStats computes the order-o conditional entropy rate (bits/value),
// the ideal order-o context predictor's hit ceiling, and the tabled event
// count for one PC. Escaped values count as one symbol; overflowed
// contexts are excluded (bounded-memory approximation).
func (t *Tracker) orderStats(h int32, order int) (entropyBits, ceiling float64, total uint64) {
	tb := t.table(h, order)
	sc := t.scratch[:0]
	for i := range tb {
		if tb[i].n != 0 {
			// Insertion sort by key keeps same-context entries adjacent
			// (key = ctx*base + sym).
			j := len(sc)
			sc = append(sc, tb[i])
			for j > 0 && sc[j-1].key > sc[j].key {
				sc[j-1], sc[j] = sc[j], sc[j-1]
				j--
			}
		}
	}
	t.scratch = sc[:0] // retain capacity
	if len(sc) == 0 {
		return 0, 0, 0
	}
	var sumClogC, sumVlogV float64
	var sumMax, tot uint64
	i := 0
	for i < len(sc) {
		ctx := sc[i].key / t.base
		var nc, mx uint64
		for i < len(sc) && sc[i].key/t.base == ctx {
			n := uint64(sc[i].n)
			nc += n
			if n > mx {
				mx = n
			}
			sumVlogV += float64(n) * math.Log2(float64(n))
			i++
		}
		sumClogC += float64(nc) * math.Log2(float64(nc))
		sumMax += mx
		tot += nc
	}
	return (sumClogC - sumVlogV) / float64(tot), float64(sumMax) / float64(tot), tot
}

// pcCeilings returns the last-value and stride ceilings plus the per-order
// ceilings and top-order entropy for one PC.
func (t *Tracker) pcCeilings(h int32) (ceilLV, ceilSt float64, ceilOrder []float64, entropy float64) {
	s := &t.st[h]
	if s.events >= 2 {
		ceilLV = float64(s.lvHits) / float64(s.events-1)
	}
	if s.events >= 3 {
		ceilSt = float64(s.stHits) / float64(s.events-2)
	}
	ceilOrder = make([]float64, t.cfg.MaxOrder+1)
	for o := 0; o <= t.cfg.MaxOrder; o++ {
		e, c, tot := t.orderStats(h, o)
		ceilOrder[o] = c
		if o == t.cfg.MaxOrder && tot > 0 {
			entropy = e
		}
	}
	return
}

// checkGap fires a stage-ring event when the PC's ceiling-gap rises
// through GapThreshold, with a 0.8× hysteresis on the way down. Cold
// path: the event detail allocates.
func (t *Tracker) checkGap(h int32, s *pcState) {
	var best float64
	if s.events >= 2 {
		best = float64(s.lvHits) / float64(s.events-1)
	}
	if s.events >= 3 {
		if st := float64(s.stHits) / float64(s.events-2); st > best {
			best = st
		}
	}
	for o := 0; o <= t.cfg.MaxOrder; o++ {
		if _, c, _ := t.orderStats(h, o); c > best {
			best = c
		}
	}
	acc, bi := 0.0, -1
	for i := 0; i < t.npred; i++ {
		a := float64(t.predHits[int(h)*t.npred+i]) / float64(s.events)
		if a > acc {
			acc, bi = a, i
		}
	}
	gap := best - acc
	if !s.gapHigh && gap >= t.cfg.GapThreshold {
		s.gapHigh = true
		bestName := "?"
		if bi >= 0 {
			bestName = t.names[bi]
		}
		t.cfg.Ring.Add(obs.StageEvent{
			Kind:  "predictability_gap",
			Shard: t.cfg.Shard,
			N:     s.events,
			Detail: fmt.Sprintf("pc=%#x ceiling=%.3f best=%s acc=%.3f gap=%.3f",
				t.pcs[h], best, bestName, acc, gap),
		})
	} else if s.gapHigh && gap < 0.8*t.cfg.GapThreshold {
		s.gapHigh = false
	}
}

// Reset drops all per-PC state, keeping configuration and capacity.
func (t *Tracker) Reset() {
	t.idx.Reset()
	t.pcs = t.pcs[:0]
	t.st = t.st[:0]
	t.win = t.win[:0]
	t.dict = t.dict[:0]
	t.hist = t.hist[:0]
	t.cnt = t.cnt[:0]
	t.fill = t.fill[:0]
	t.ovf = t.ovf[:0]
	t.predHits = t.predHits[:0]
	t.events = 0
}

// classOf labels one PC's trailing window with the paper's sequence
// class, using the reusable linearization buffer.
func (t *Tracker) classOf(h int32) seqclass.Kind {
	s := &t.st[h]
	n := int(s.winLen)
	if n < 3 {
		return seqclass.Unclassified
	}
	win := t.win[int(h)*t.cfg.Window : (int(h)+1)*t.cfg.Window]
	buf := t.winBuf[:0]
	start := int(s.winPos)
	if n < t.cfg.Window {
		start = 0
	}
	for i := 0; i < n; i++ {
		buf = append(buf, win[(start+i)%t.cfg.Window])
	}
	return seqclass.Classify(buf, t.cfg.Window/2)
}
