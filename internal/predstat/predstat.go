// Package predstat measures how predictable each PC's value stream is,
// online, so realized predictor hit rates can be judged against the
// ceiling the stream itself permits. It is the running system's version
// of the paper's central question: not "how often did the predictor hit"
// but "how often could any predictor of this class hit".
//
// A Tracker attaches to a core.Bank through the RunObserver hook, which
// binds it to the bank's predictors and then hands it every same-PC value
// run together with each predictor's hit count. Per PC it keeps only
// scalars:
//
//   - last-value and stride ceilings (the fraction of events an oracle
//     last-value or stride predictor would hit);
//   - a trailing value window labeled with the paper's sequence classes
//     (internal/seqclass) at report time;
//   - realized per-predictor hit counts, so the gap between ceiling and
//     reality is attributable per predictor.
//
// The context ceilings and the conditional entropy come from the bank's
// own FCMs. The top order of an order-k FCM is updated on every event,
// so its runs are the exact counts of (order-k context, next value) per
// PC, and the FCM keeps two per-PC sums over them (core.FCM.TopOrderSums):
// each context's highest count, and all its counts. Each bound FCM gives
// the exact order-k ceiling for its own order k, and the highest-order
// one the plug-in conditional entropy. Those cover every event the FCM
// has counted, restored history included, while the scalars count only
// the events the tracker observed. A bank without an order-k FCM reports
// no order-k ceiling.
//
// When a PC's ceiling-gap (best ceiling minus best realized accuracy)
// crosses gapThreshold, the Tracker fires a stage-ring event — the
// "this stream deserves a different predictor" signal a future
// meta-chooser consumes.
//
// ObserveRun is allocation-free in steady state; reporting (Report, and
// Report.Merge across shard trackers) is cold-path.
package predstat

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seqclass"
)

const (
	// window is the number of trailing values kept per PC for sequence-
	// class labeling, a power of two.
	window = 16
	// gapThreshold is the ceiling-gap at which a stage-ring event fires;
	// the latch clears again below 0.8× of it.
	gapThreshold = 0.25
	// defaultMinEvents is Config.MinEvents when it is left 0.
	defaultMinEvents = 256
)

// Config tunes a Tracker's reporting. The zero value is usable.
type Config struct {
	// PredNames are the bank's predictor names in bank order. If empty,
	// the bound predictors' own names are used.
	PredNames []string
	// MinEvents is the per-PC event count below which a PC is neither
	// reported nor gap-checked. Default 256.
	MinEvents uint64
	// Ring, when non-nil, receives "predictability_gap" events.
	Ring *obs.Ring
	// Shard is stamped on ring events.
	Shard int
}

// pcState is the scalar per-PC state slab entry.
type pcState struct {
	events    uint64 // values observed at this PC
	prev      uint64 // last value
	prevDelta uint64 // last delta (valid when events >= 2)
	lvHits    uint64 // events where value == previous value
	stHits    uint64 // events where delta == previous delta
	winLen    uint16 // values in the window, up to window
	winPos    uint16 // window slot the next value takes
	gapHigh   bool   // gap-event hysteresis latch
}

// ceilings returns the PC's last-value and stride ceilings over the
// observed events.
func (s *pcState) ceilings() (lastValue, stride float64) {
	if s.events >= 2 {
		lastValue = float64(s.lvHits) / float64(s.events-1)
	}
	if s.events >= 3 {
		stride = float64(s.stHits) / float64(s.events-2)
	}
	return lastValue, stride
}

// Tracker is a streaming predictability estimator over every PC it
// observes. It is single-writer: Bind, ObserveRun and Report must not
// race each other or the bound bank's steps (in serve each shard owns
// one Tracker).
type Tracker struct {
	cfg   Config
	npred int
	names []string
	fcms  []*core.FCM // bound FCMs, one per order, by ascending order

	idx      core.PCIndex
	pcs      []uint64  // handle → pc
	st       []pcState // handle → scalars
	win      []uint64  // handle*window trailing-value ring
	predHits []uint64  // handle*npred realized hits

	events uint64 // total observed events
}

// NewTracker builds a Tracker.
func NewTracker(cfg Config) *Tracker {
	if cfg.MinEvents == 0 {
		cfg.MinEvents = defaultMinEvents
	}
	t := &Tracker{cfg: cfg}
	if len(cfg.PredNames) > 0 {
		t.setPreds(cfg.PredNames)
	}
	return t
}

func (t *Tracker) setPreds(names []string) {
	t.npred = len(names)
	t.names = append([]string(nil), names...)
}

// Bind implements core.RunObserver: every FCM among preds becomes the
// source of the ceiling for its order (the first one, when two share an
// order), and a tracker without predictor names takes the predictors'.
func (t *Tracker) Bind(preds []core.Predictor) {
	t.fcms = t.fcms[:0]
	for _, p := range preds {
		f, ok := p.(*core.FCM)
		if ok && !slices.ContainsFunc(t.fcms, func(g *core.FCM) bool { return g.Order() == f.Order() }) {
			t.fcms = append(t.fcms, f)
		}
	}
	slices.SortFunc(t.fcms, func(a, b *core.FCM) int { return cmp.Compare(a.Order(), b.Order()) })
	if t.npred == 0 && len(t.pcs) == 0 {
		names := make([]string, len(preds))
		for i, p := range preds {
			names[i] = p.Name()
		}
		t.setPreds(names)
	}
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
	t.win = append(t.win, make([]uint64, window)...)
	t.predHits = append(t.predHits, make([]uint64, t.npred)...)
	return h
}

// ObserveRun implements core.RunObserver: values is one same-PC run in
// stream order, hits each predictor's correct predictions over it.
// Allocation-free once a PC's slabs exist.
func (t *Tracker) ObserveRun(pc uint64, values []uint64, hits []uint64) {
	if len(values) == 0 {
		return
	}
	h := t.handle(pc)
	ph := t.predHits[int(h)*t.npred : (int(h)+1)*t.npred]
	for i := range min(len(ph), len(hits)) {
		ph[i] += hits[i]
	}

	s := &t.st[h]
	before := s.events
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
		s.events++
	}
	// Only the run's last window values reach the ring; each lands in the
	// slot it would have taken had every value been written.
	n := len(values)
	tail := values[max(0, n-window):]
	win := t.win[int(h)*window : (int(h)+1)*window]
	pos := (int(s.winPos) + n - len(tail)) & (window - 1)
	for _, v := range tail {
		win[pos] = v
		pos = (pos + 1) & (window - 1)
	}
	s.winPos = uint16(pos)
	s.winLen = uint16(min(int(s.winLen)+n, window))
	t.events += uint64(n)

	if t.cfg.Ring != nil && s.events >= t.cfg.MinEvents && before>>8 != s.events>>8 {
		t.checkGap(h, s)
	}
}

// orderCeiling returns f's exact order-k ceiling at pc and the top-order
// events it covers; ok is false when f's top order has counted no event
// there.
func orderCeiling(f *core.FCM, pc uint64) (ceil float64, events uint64, ok bool) {
	hits, events := f.TopOrderSums(pc)
	if events == 0 {
		return 0, 0, false
	}
	return float64(hits) / float64(events), events, true
}

// checkGap fires a stage-ring event when the PC's ceiling-gap rises
// through gapThreshold, with a 0.8× hysteresis on the way down. It reads
// each bound FCM's sums once. Cold path: the event detail allocates.
func (t *Tracker) checkGap(h int32, s *pcState) {
	lv, st := s.ceilings()
	best := max(lv, st)
	for _, f := range t.fcms {
		if c, _, ok := orderCeiling(f, t.pcs[h]); ok {
			best = max(best, c)
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
	if !s.gapHigh && gap >= gapThreshold {
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
	} else if s.gapHigh && gap < 0.8*gapThreshold {
		s.gapHigh = false
	}
}

// Reset drops all per-PC state, keeping configuration, binding and
// capacity.
func (t *Tracker) Reset() {
	t.idx.Reset()
	t.pcs = t.pcs[:0]
	t.st = t.st[:0]
	t.win = t.win[:0]
	t.predHits = t.predHits[:0]
	t.events = 0
}

// classOf labels one PC's trailing window with the paper's sequence
// class.
func (t *Tracker) classOf(h int32) seqclass.Kind {
	s := &t.st[h]
	n := int(s.winLen)
	if n < 3 {
		return seqclass.Unclassified
	}
	win := t.win[int(h)*window : (int(h)+1)*window]
	var buf [window]uint64
	start := int(s.winPos) - n // the oldest value's slot, modulo window
	for i := range n {
		buf[i] = win[(start+i)&(window-1)]
	}
	return seqclass.Classify(buf[:n], window/2)
}
