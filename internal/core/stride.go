package core

import (
	"io"

	"repro/internal/core/kernel"
)

// The stride and last-value predictors share the package's flat layout:
// one open-addressed pc→handle table per predictor plus a contiguous
// entry slab (and a parallel PC slab for canonical state iteration), so
// predict/update never allocates and touches at most two cache lines.

// StrideSimple is the basic stride predictor of Section 2.1: it predicts
// last + (last - secondLast) with no hysteresis, so a repeated stride
// sequence costs two mispredictions per iteration (one at the wrap, one
// re-learning the stride).
type StrideSimple struct {
	idx     pcTable
	pcs     []uint64
	entries []strideEntry
	// saveOrder caches the ascending-PC handle order between chunked
	// saves; revalidated by cachedSortedHandles on every use.
	saveOrder []int32
}

type strideEntry struct {
	last   uint64
	stride uint64 // stored as wrapped two's-complement delta
	// seen counts observations, saturating at 2: 0 values, 1 value,
	// or enough (2+) to have a stride.
	seen uint8
}

// NewStrideSimple returns an empty always-update stride predictor.
func NewStrideSimple() *StrideSimple {
	return &StrideSimple{}
}

// Name implements Predictor.
func (p *StrideSimple) Name() string { return "s" }

// Predict implements Predictor.
func (p *StrideSimple) Predict(pc uint64) (uint64, bool) {
	i, ok := p.idx.lookup(pc)
	if !ok || p.entries[i].seen == 0 {
		return 0, false
	}
	// After a single observation the stride is zero, i.e. last-value
	// behavior, which matches hardware stride tables that initialize the
	// delta field to 0 on allocation.
	e := &p.entries[i]
	return e.last + e.stride, true
}

// Update implements Predictor.
func (p *StrideSimple) Update(pc uint64, value uint64) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, strideEntry{last: value, seen: 1})
		return
	}
	e := &p.entries[i]
	e.stride = value - e.last
	e.last = value
	if e.seen < 2 {
		e.seen++
	}
}

// StepRun implements Predictor: one table probe per run, the entry
// carried through the loop and written back once.
func (p *StrideSimple) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	k := 0
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, strideEntry{last: values[0], seen: 1})
		hits[0] = 0
		k = 1
	}
	e := p.entries[i]
	// The always-update predictor's whole run is one kernel call: the
	// prediction for rest[0] is last+stride, for rest[1] it is
	// 2*rest[0]-last, and from there on 2*rest[j-1]-rest[j-2].
	rest := values[k:]
	n := kernel.CompareStrideCount(e.last, e.stride, rest, hits[k:])
	if e.seen == 0 && len(rest) > 0 && hits[k] != 0 {
		// A restored-but-empty entry makes no prediction for its first
		// event; the kernel scored it, so take it back.
		hits[k] = 0
		n--
	}
	if m := len(rest); m > 0 {
		if m >= 2 {
			e.stride = rest[m-1] - rest[m-2]
		} else {
			e.stride = rest[0] - e.last
		}
		e.last = rest[m-1]
		if s := int(e.seen) + m; s >= 2 {
			e.seen = 2
		} else {
			e.seen = uint8(s)
		}
	}
	p.entries[i] = e
	return n
}

// Reset implements Resetter.
func (p *StrideSimple) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.entries = p.entries[:0]
}

// TableEntries implements Sized.
func (p *StrideSimple) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, last, stride, seen) tuples.
func (p *StrideSimple) SaveState(w io.Writer) error {
	var e stateEncoder
	e.uvarint(uint64(len(p.entries)))
	var prev uint64
	for _, i := range sortedHandles(p.pcs) {
		pc := p.pcs[i]
		ent := &p.entries[i]
		e.uvarint(pc - prev)
		e.uvarint(ent.last)
		e.uvarint(ent.stride)
		e.uvarint(uint64(ent.seen))
		prev = pc
	}
	return e.flushTo(w)
}

// LoadState implements Stateful.
func (p *StrideSimple) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	n := d.uvarint()
	var idx pcTable
	var pcs []uint64
	var entries []strideEntry
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		ent := strideEntry{last: d.uvarint(), stride: d.uvarint()}
		ent.seen = uint8(d.count(2))
		if d.err != nil {
			break
		}
		if _, dup := idx.lookup(pc); dup {
			return errState(p.Name(), errDuplicatePC(pc))
		}
		idx.insert(pc)
		pcs = append(pcs, pc)
		entries = append(entries, ent)
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	p.idx, p.pcs, p.entries = idx, pcs, entries
	return nil
}

// PCEntries implements PerPC.
func (p *StrideSimple) PCEntries() map[uint64]int { return onePerPC(p.pcs) }

// Stride2Delta is the 2-delta stride predictor of Eickemeyer &
// Vassiliadis that the paper simulates as "s2": two strides are kept; s1
// always tracks the difference of the two most recent values, while s2 is
// used for predictions and is only overwritten when the same s1 occurs
// twice in a row. Repeated stride sequences then cost one misprediction
// per iteration and the stride changes only on consistent evidence.
type Stride2Delta struct {
	idx       pcTable
	pcs       []uint64
	entries   []s2Entry
	saveOrder []int32 // chunked-save handle-order cache
}

type s2Entry struct {
	last uint64
	s1   uint64 // most recent delta
	s2   uint64 // prediction delta
	// s1Count counts consecutive occurrences of the current s1 value,
	// saturating at 2; when it reaches 2, s2 is set to s1.
	s1Count uint8
	seen    uint8 // 0: empty, 1: one value seen, 2: stride history valid
}

// NewStride2Delta returns an empty 2-delta stride predictor.
func NewStride2Delta() *Stride2Delta {
	return &Stride2Delta{}
}

// Name implements Predictor.
func (p *Stride2Delta) Name() string { return "s2" }

// Predict implements Predictor. No prediction is made until two values
// have been seen, matching the trace in the paper's Figure 2 (predictions
// "0 0 3 4 5 2 3 4 ..." for the sequence 1 2 3 4 repeated).
func (p *Stride2Delta) Predict(pc uint64) (uint64, bool) {
	i, ok := p.idx.lookup(pc)
	if !ok || p.entries[i].seen < 2 {
		return 0, false
	}
	e := &p.entries[i]
	return e.last + e.s2, true
}

// Update implements Predictor. The first observed delta initializes both
// strides; afterwards s2 follows s1 only when the same s1 repeats.
func (p *Stride2Delta) Update(pc uint64, value uint64) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, s2Entry{last: value, seen: 1})
		return
	}
	e := &p.entries[i]
	delta := value - e.last
	switch {
	case e.seen == 1:
		e.s1, e.s2, e.s1Count = delta, delta, 1
		e.seen = 2
	case delta == e.s1:
		if e.s1Count < 2 {
			e.s1Count++
		}
		if e.s1Count >= 2 {
			e.s2 = delta
		}
	default:
		e.s1 = delta
		e.s1Count = 1
	}
	e.last = value
}

// StepRun implements Predictor.
func (p *Stride2Delta) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	k := 0
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, s2Entry{last: values[0], seen: 1})
		hits[0] = 0
		k = 1
	}
	e := p.entries[i]
	var n uint64
	for k < len(values) {
		// Steady state: both strides agree, so a hit implies delta ==
		// s1 == s2 and the step only saturates s1Count — the whole
		// strided stretch applies in bulk via the prefix kernel.
		if e.seen == 2 && e.s1 == e.s2 {
			if m := kernel.StridePrefixLen(e.last, e.s2, values[k:]); m > 0 {
				kernel.SetOnes(hits[k : k+m])
				n += uint64(m)
				if c := int(e.s1Count) + m; c >= 2 {
					e.s1Count = 2
				} else {
					e.s1Count = uint8(c)
				}
				e.last = values[k+m-1]
				k += m
				continue
			}
		}
		v := values[k]
		h := b2u8(e.seen >= 2 && e.last+e.s2 == v)
		hits[k] = h
		n += uint64(h)
		delta := v - e.last
		switch {
		case e.seen == 1:
			e.s1, e.s2, e.s1Count = delta, delta, 1
			e.seen = 2
		case delta == e.s1:
			if e.s1Count < 2 {
				e.s1Count++
			}
			if e.s1Count >= 2 {
				e.s2 = delta
			}
		default:
			e.s1 = delta
			e.s1Count = 1
		}
		e.last = v
		k++
	}
	p.entries[i] = e
	return n
}

// Reset implements Resetter.
func (p *Stride2Delta) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.entries = p.entries[:0]
}

// TableEntries implements Sized.
func (p *Stride2Delta) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, last, s1, s2, s1Count, seen).
func (p *Stride2Delta) SaveState(w io.Writer) error {
	var e stateEncoder
	e.uvarint(uint64(len(p.entries)))
	var prev uint64
	for _, i := range sortedHandles(p.pcs) {
		pc := p.pcs[i]
		ent := &p.entries[i]
		e.uvarint(pc - prev)
		e.uvarint(ent.last)
		e.uvarint(ent.s1)
		e.uvarint(ent.s2)
		e.uvarint(uint64(ent.s1Count))
		e.uvarint(uint64(ent.seen))
		prev = pc
	}
	return e.flushTo(w)
}

// LoadState implements Stateful.
func (p *Stride2Delta) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	n := d.uvarint()
	var idx pcTable
	var pcs []uint64
	var entries []s2Entry
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		ent := s2Entry{last: d.uvarint(), s1: d.uvarint(), s2: d.uvarint()}
		ent.s1Count = uint8(d.count(2))
		ent.seen = uint8(d.count(2))
		if d.err != nil {
			break
		}
		if _, dup := idx.lookup(pc); dup {
			return errState(p.Name(), errDuplicatePC(pc))
		}
		idx.insert(pc)
		pcs = append(pcs, pc)
		entries = append(entries, ent)
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	p.idx, p.pcs, p.entries = idx, pcs, entries
	return nil
}

// PCEntries implements PerPC.
func (p *Stride2Delta) PCEntries() map[uint64]int { return onePerPC(p.pcs) }

// StrideCounter is the saturating-counter stride variant of Gonzalez &
// Gonzalez referenced in Section 2.1: the stride is only changed when a
// saturating counter (incremented on success, decremented on failure) is
// below a threshold. This also reduces repeated-stride mispredictions to
// one per iteration.
type StrideCounter struct {
	idx       pcTable
	pcs       []uint64
	entries   []scEntry
	max       int8
	threshold int8
	saveOrder []int32 // chunked-save handle-order cache
}

type scEntry struct {
	last   uint64
	stride uint64
	count  int8
	seen   uint8
}

// NewStrideCounter returns a stride predictor guarded by a saturating
// counter with the given maximum and replacement threshold (e.g. 3 and 1).
func NewStrideCounter(max, threshold int8) *StrideCounter {
	if max < 1 {
		max = 1
	}
	if threshold < 0 {
		threshold = 0
	}
	return &StrideCounter{max: max, threshold: threshold}
}

// Name implements Predictor.
func (p *StrideCounter) Name() string { return "sc" }

// Predict implements Predictor.
func (p *StrideCounter) Predict(pc uint64) (uint64, bool) {
	i, ok := p.idx.lookup(pc)
	if !ok || p.entries[i].seen == 0 {
		return 0, false
	}
	e := &p.entries[i]
	return e.last + e.stride, true
}

// Update implements Predictor.
func (p *StrideCounter) Update(pc uint64, value uint64) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, scEntry{last: value, seen: 1})
		return
	}
	e := &p.entries[i]
	predicted := e.last + e.stride
	if e.seen >= 1 {
		if predicted == value {
			if e.count < p.max {
				e.count++
			}
		} else {
			if e.count > 0 {
				e.count--
			}
			if e.count <= p.threshold {
				e.stride = value - e.last
			}
		}
	}
	e.last = value
	if e.seen < 2 {
		e.seen++
	}
}

// StepRun implements Predictor.
func (p *StrideCounter) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	k := 0
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, scEntry{last: values[0], seen: 1})
		hits[0] = 0
		k = 1
	}
	e := p.entries[i]
	var n uint64
	if e.seen == 0 && k < len(values) {
		// A restored-but-empty entry: no prediction, no counter logic.
		hits[k] = 0
		e.last = values[k]
		e.seen = 1
		k++
	}
	// Segment loop: a stretch that follows the sticky stride is all
	// hits and only saturates the counter, applied in bulk; the
	// mismatch ending it runs the scalar hysteresis step.
	for k < len(values) {
		if m := kernel.StridePrefixLen(e.last, e.stride, values[k:]); m > 0 {
			kernel.SetOnes(hits[k : k+m])
			n += uint64(m)
			if c := int(e.count) + m; c >= int(p.max) {
				e.count = p.max
			} else {
				e.count = int8(c)
			}
			e.last = values[k+m-1]
			if s := int(e.seen) + m; s >= 2 {
				e.seen = 2
			} else {
				e.seen = uint8(s)
			}
			k += m
			continue
		}
		v := values[k]
		hits[k] = 0
		if e.count > 0 {
			e.count--
		}
		if e.count <= p.threshold {
			e.stride = v - e.last
		}
		e.last = v
		if e.seen < 2 {
			e.seen++
		}
		k++
	}
	p.entries[i] = e
	return n
}

// Reset implements Resetter.
func (p *StrideCounter) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.entries = p.entries[:0]
}

// TableEntries implements Sized.
func (p *StrideCounter) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, last, stride, count, seen).
// The counter never goes negative (decrements are guarded), so it encodes
// as a plain uvarint.
func (p *StrideCounter) SaveState(w io.Writer) error {
	var e stateEncoder
	e.uvarint(uint64(len(p.entries)))
	var prev uint64
	for _, i := range sortedHandles(p.pcs) {
		pc := p.pcs[i]
		ent := &p.entries[i]
		e.uvarint(pc - prev)
		e.uvarint(ent.last)
		e.uvarint(ent.stride)
		e.uvarint(uint64(ent.count))
		e.uvarint(uint64(ent.seen))
		prev = pc
	}
	return e.flushTo(w)
}

// LoadState implements Stateful.
func (p *StrideCounter) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	n := d.uvarint()
	var idx pcTable
	var pcs []uint64
	var entries []scEntry
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		ent := scEntry{last: d.uvarint(), stride: d.uvarint()}
		ent.count = int8(d.count(uint64(p.max)))
		ent.seen = uint8(d.count(2))
		if d.err != nil {
			break
		}
		if _, dup := idx.lookup(pc); dup {
			return errState(p.Name(), errDuplicatePC(pc))
		}
		idx.insert(pc)
		pcs = append(pcs, pc)
		entries = append(entries, ent)
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	p.idx, p.pcs, p.entries = idx, pcs, entries
	return nil
}

// PCEntries implements PerPC.
func (p *StrideCounter) PCEntries() map[uint64]int { return onePerPC(p.pcs) }
