package core

import (
	"io"

	"repro/internal/core/kernel"
)

// LastValue is the paper's simplest computational predictor: the identity
// function on the previous value. This variant always updates (no
// hysteresis), matching the "l" configuration simulated in the paper.
type LastValue struct {
	idx  pcTable
	pcs  []uint64
	vals []uint64
	// saveOrder caches the ascending-PC handle order between chunked
	// saves; revalidated by cachedSortedHandles on every use.
	saveOrder []int32
}

// NewLastValue returns an empty always-update last value predictor.
func NewLastValue() *LastValue {
	return &LastValue{}
}

// Name implements Predictor.
func (p *LastValue) Name() string { return "l" }

// Predict implements Predictor.
func (p *LastValue) Predict(pc uint64) (uint64, bool) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		return 0, false
	}
	return p.vals[i], true
}

// Update implements Predictor.
func (p *LastValue) Update(pc uint64, value uint64) {
	if i, ok := p.idx.lookup(pc); ok {
		p.vals[i] = value
		return
	}
	p.idx.insert(pc)
	p.pcs = append(p.pcs, pc)
	p.vals = append(p.vals, value)
}

// StepRun implements Predictor: one table probe for the whole run,
// then the word-parallel adjacent compare+count kernel — within a
// same-PC run the prediction for values[k] is simply values[k-1].
func (p *LastValue) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	k := 0
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.vals = append(p.vals, values[0])
		hits[0] = 0
		k = 1
	}
	n := kernel.CompareAdjacentCount(p.vals[i], values[k:], hits[k:])
	p.vals[i] = values[len(values)-1]
	return n
}

// Reset implements Resetter.
func (p *LastValue) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.vals = p.vals[:0]
}

// TableEntries implements Sized.
func (p *LastValue) TableEntries() (static, total int) {
	return len(p.vals), len(p.vals)
}

// SaveState implements Stateful: sorted (pc, value) pairs, PCs
// delta-encoded.
func (p *LastValue) SaveState(w io.Writer) error {
	var e stateEncoder
	e.uvarint(uint64(len(p.vals)))
	var prev uint64
	for _, i := range sortedHandles(p.pcs) {
		pc := p.pcs[i]
		e.uvarint(pc - prev)
		e.uvarint(p.vals[i])
		prev = pc
	}
	return e.flushTo(w)
}

// LoadState implements Stateful.
func (p *LastValue) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	n := d.uvarint()
	var idx pcTable
	var pcs, vals []uint64
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		v := d.uvarint()
		if d.err != nil {
			break
		}
		if _, dup := idx.lookup(pc); dup {
			return errState(p.Name(), errDuplicatePC(pc))
		}
		idx.insert(pc)
		pcs = append(pcs, pc)
		vals = append(vals, v)
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	p.idx, p.pcs, p.vals = idx, pcs, vals
	return nil
}

// PCEntries implements PerPC: one table entry per static instruction.
func (p *LastValue) PCEntries() map[uint64]int { return onePerPC(p.pcs) }

// LastValueCounter is the saturating-counter hysteresis variant described
// in Section 2.1: a counter per entry is incremented on success and
// decremented on failure, and the stored value is replaced only when the
// counter is below a threshold. The counter saturates at max.
type LastValueCounter struct {
	idx       pcTable
	pcs       []uint64
	entries   []lvcEntry
	max       int8
	threshold int8
	saveOrder []int32 // chunked-save handle-order cache
}

type lvcEntry struct {
	value uint64
	count int8
}

// NewLastValueCounter returns a hysteresis last-value predictor with the
// given saturation maximum and replacement threshold. A common
// configuration is max=3, threshold=1 (2-bit counter).
func NewLastValueCounter(max, threshold int8) *LastValueCounter {
	if max < 1 {
		max = 1
	}
	if threshold < 0 {
		threshold = 0
	}
	return &LastValueCounter{max: max, threshold: threshold}
}

// Name implements Predictor.
func (p *LastValueCounter) Name() string { return "lc" }

// Predict implements Predictor.
func (p *LastValueCounter) Predict(pc uint64) (uint64, bool) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		return 0, false
	}
	return p.entries[i].value, true
}

// Update implements Predictor.
func (p *LastValueCounter) Update(pc uint64, value uint64) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, lvcEntry{value: value, count: 0})
		return
	}
	e := &p.entries[i]
	if e.value == value {
		if e.count < p.max {
			e.count++
		}
		return
	}
	if e.count > 0 {
		e.count--
	}
	if e.count <= p.threshold {
		e.value = value
	}
}

// StepRun implements Predictor: the entry is read once, carried
// through the run in registers and written back at the end.
func (p *LastValueCounter) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	k := 0
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, lvcEntry{value: values[0], count: 0})
		hits[0] = 0
		k = 1
	}
	e := p.entries[i]
	var n uint64
	// Segment loop: every maximal stretch of events equal to the stored
	// value is a block of guaranteed hits (the counter only saturates
	// upward), applied in bulk via the prefix kernel; the mismatch event
	// that ends a segment runs the scalar hysteresis step.
	for k < len(values) {
		if m := kernel.ConstPrefixLen(values[k:], e.value); m > 0 {
			kernel.SetOnes(hits[k : k+m])
			n += uint64(m)
			if c := int(e.count) + m; c >= int(p.max) {
				e.count = p.max
			} else {
				e.count = int8(c)
			}
			k += m
			continue
		}
		hits[k] = 0
		if e.count > 0 {
			e.count--
		}
		if e.count <= p.threshold {
			e.value = values[k]
		}
		k++
	}
	p.entries[i] = e
	return n
}

// Reset implements Resetter.
func (p *LastValueCounter) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.entries = p.entries[:0]
}

// TableEntries implements Sized.
func (p *LastValueCounter) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, value, counter) triples. The
// counter never goes negative (decrements are guarded), so it encodes as
// a plain uvarint.
func (p *LastValueCounter) SaveState(w io.Writer) error {
	var e stateEncoder
	e.uvarint(uint64(len(p.entries)))
	var prev uint64
	for _, i := range sortedHandles(p.pcs) {
		pc := p.pcs[i]
		ent := &p.entries[i]
		e.uvarint(pc - prev)
		e.uvarint(ent.value)
		e.uvarint(uint64(ent.count))
		prev = pc
	}
	return e.flushTo(w)
}

// LoadState implements Stateful.
func (p *LastValueCounter) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	n := d.uvarint()
	var idx pcTable
	var pcs []uint64
	var entries []lvcEntry
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		value := d.uvarint()
		count := d.count(uint64(p.max))
		if d.err != nil {
			break
		}
		if _, dup := idx.lookup(pc); dup {
			return errState(p.Name(), errDuplicatePC(pc))
		}
		idx.insert(pc)
		pcs = append(pcs, pc)
		entries = append(entries, lvcEntry{value: value, count: int8(count)})
	}
	if err := d.expectEOF(); err != nil {
		return errState(p.Name(), err)
	}
	p.idx, p.pcs, p.entries = idx, pcs, entries
	return nil
}

// PCEntries implements PerPC.
func (p *LastValueCounter) PCEntries() map[uint64]int { return onePerPC(p.pcs) }

// LastValueConsecutive is the second hysteresis flavor from Section 2.1:
// the prediction only changes to a new value after that value has been
// observed a fixed number of times in succession ("changes to a new
// prediction only after it has been consistently observed").
type LastValueConsecutive struct {
	idx       pcTable
	pcs       []uint64
	entries   []lvcons
	required  int
	saveOrder []int32 // chunked-save handle-order cache
}

type lvcons struct {
	value     uint64 // current prediction
	candidate uint64 // value observed but not yet adopted
	runLength int    // consecutive observations of candidate
}

// NewLastValueConsecutive returns a predictor that adopts a new value only
// after observing it `required` times in a row (required >= 1).
func NewLastValueConsecutive(required int) *LastValueConsecutive {
	if required < 1 {
		required = 1
	}
	return &LastValueConsecutive{required: required}
}

// Name implements Predictor.
func (p *LastValueConsecutive) Name() string { return "ln" }

// Predict implements Predictor.
func (p *LastValueConsecutive) Predict(pc uint64) (uint64, bool) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		return 0, false
	}
	return p.entries[i].value, true
}

// Update implements Predictor.
func (p *LastValueConsecutive) Update(pc uint64, value uint64) {
	i, ok := p.idx.lookup(pc)
	if !ok {
		p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, lvcons{value: value, candidate: value, runLength: p.required})
		return
	}
	e := &p.entries[i]
	if value == e.candidate {
		e.runLength++
	} else {
		e.candidate = value
		e.runLength = 1
	}
	if e.runLength >= p.required {
		e.value = e.candidate
	}
}

// StepRun implements Predictor.
func (p *LastValueConsecutive) StepRun(pc uint64, values []uint64, hits []byte) uint64 {
	if len(values) == 0 {
		return 0
	}
	k := 0
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, lvcons{value: values[0], candidate: values[0], runLength: p.required})
		hits[0] = 0
		k = 1
	}
	e := p.entries[i]
	var n uint64
	for k < len(values) {
		v := values[k]
		// Steady state: prediction and candidate agree and the stream
		// repeats them — every event is a hit that only extends the
		// candidate run, so the whole stretch applies in bulk.
		if e.value == e.candidate && v == e.value {
			m := kernel.ConstPrefixLen(values[k:], v)
			kernel.SetOnes(hits[k : k+m])
			n += uint64(m)
			e.runLength += m
			k += m
			continue
		}
		h := b2u8(e.value == v)
		hits[k] = h
		n += uint64(h)
		if v == e.candidate {
			e.runLength++
		} else {
			e.candidate = v
			e.runLength = 1
		}
		if e.runLength >= p.required {
			e.value = e.candidate
		}
		k++
	}
	p.entries[i] = e
	return n
}

// Reset implements Resetter.
func (p *LastValueConsecutive) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.entries = p.entries[:0]
}

// TableEntries implements Sized.
func (p *LastValueConsecutive) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, value, candidate, runLength).
func (p *LastValueConsecutive) SaveState(w io.Writer) error {
	var e stateEncoder
	e.uvarint(uint64(len(p.entries)))
	var prev uint64
	for _, i := range sortedHandles(p.pcs) {
		pc := p.pcs[i]
		ent := &p.entries[i]
		e.uvarint(pc - prev)
		e.uvarint(ent.value)
		e.uvarint(ent.candidate)
		e.uvarint(uint64(ent.runLength))
		prev = pc
	}
	return e.flushTo(w)
}

// LoadState implements Stateful.
func (p *LastValueConsecutive) LoadState(r io.Reader) error {
	d := newStateDecoder(r)
	n := d.uvarint()
	var idx pcTable
	var pcs []uint64
	var entries []lvcons
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		ent := lvcons{value: d.uvarint(), candidate: d.uvarint()}
		ent.runLength = int(d.count(1 << 62))
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
func (p *LastValueConsecutive) PCEntries() map[uint64]int { return onePerPC(p.pcs) }
