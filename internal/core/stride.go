package core

import (
	"errors"
	"io"
)

// The stride and last-value predictors share the package's flat layout:
// one open-addressed pc→handle table per predictor plus a contiguous
// entry slab (and a parallel PC slab for ascending-PC state iteration),
// so predict/update never allocates and touches at most two cache lines.
// A bitset beside the slab marks the PCs stepped since the last save.

// StrideSimple is the basic stride predictor of Section 2.1: it predicts
// last + (last - secondLast) with no hysteresis, so a repeated stride
// sequence costs two mispredictions per iteration (one at the wrap, one
// re-learning the stride).
type StrideSimple struct {
	idx     pcTable
	pcs     []uint64
	entries []strideEntry
	marks   pcMarks // PCs stepped since the last save
}

type strideEntry struct {
	last   uint64
	stride uint64 // stored as wrapped two's-complement delta
	// seen counts observations, saturating at 2: 1 value, or enough
	// (2+) to have a stride. An entry is created on its first value.
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
	if !ok {
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
		p.marks.mark(p.idx.insert(pc))
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, strideEntry{last: value, seen: 1})
		return
	}
	p.marks.mark(i)
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
	p.marks.mark(i)
	e := p.entries[i]
	rest := values[k:]
	hs := hits[k:][:len(rest)]
	var n uint64
	for j, v := range rest {
		h := b2u8(v == e.last+e.stride)
		hs[j] = h
		n += uint64(h)
		e.stride = v - e.last
		e.last = v
	}
	if len(rest) > 0 {
		// The entry held a value already, so one more gives it a stride.
		e.seen = 2
	}
	p.entries[i] = e
	return n
}

// Reset implements Resetter.
func (p *StrideSimple) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.entries = p.entries[:0]
	clear(p.marks)
}

// StateBytes implements Sized.
func (p *StrideSimple) StateBytes() MemBytes {
	return p.idx.bytes().Plus(sliceBytes(p.pcs)).Plus(sliceBytes(p.entries)).Plus(sliceBytes(p.marks))
}

// TableEntries implements Sized.
func (p *StrideSimple) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, last, stride, seen) tuples.
func (p *StrideSimple) SaveState(w io.Writer) error {
	_, err := saveRecords(w, p.pcs, p.marks, false, p.encodeRec)
	return err
}

// LoadState implements Stateful.
func (p *StrideSimple) LoadState(r io.Reader) error {
	idx, pcs, entries, err := loadRecords(r, p.Name(), decodeStrideSimple)
	if err != nil {
		return err
	}
	p.idx, p.pcs, p.entries = idx, pcs, entries
	clear(p.marks)
	return nil
}

// SaveDelta implements DeltaStateful: SaveState's records for the PCs
// stepped since the last save only.
func (p *StrideSimple) SaveDelta(w io.Writer) (int, error) {
	return saveRecords(w, p.pcs, p.marks, true, p.encodeRec)
}

// ApplyDelta implements DeltaStateful.
func (p *StrideSimple) ApplyDelta(r io.Reader) (int, error) {
	return applyRecords(r, p.Name(), &p.idx, &p.pcs, &p.entries, decodeStrideSimple)
}

// encodeRec writes handle h's record fields (everything but the PC).
func (p *StrideSimple) encodeRec(e *stateEncoder, h int32) {
	ent := &p.entries[h]
	e.uvarint(ent.last)
	e.uvarint(ent.stride)
	e.uvarint(uint64(ent.seen))
}

// decodeStrideSimple reads one record's fields, the inverse of encodeRec.
func decodeStrideSimple(d *stateDecoder) strideEntry {
	return strideEntry{last: d.uvarint(), stride: d.uvarint(), seen: decodeSeen(d)}
}

// errNoValue flags a stride record that has seen no value. Every entry
// is created on its first value, so no save writes one, and an entry
// loaded that way would never predict.
var errNoValue = errors.New("stride entry has seen no value")

// decodeSeen reads a stride record's observation count: 1 or 2.
func decodeSeen(d *stateDecoder) uint8 {
	n := d.count(2)
	if d.err == nil && n == 0 {
		d.err = errNoValue
	}
	return uint8(n)
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
	idx     pcTable
	pcs     []uint64
	entries []s2Entry
	marks   pcMarks // PCs stepped since the last save
}

type s2Entry struct {
	last uint64
	s1   uint64 // most recent delta
	s2   uint64 // prediction delta
	// s1Count counts consecutive occurrences of the current s1 value,
	// saturating at 2; when it reaches 2, s2 is set to s1.
	s1Count uint8
	seen    uint8 // 1: one value seen, 2: stride history valid
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
		p.marks.mark(p.idx.insert(pc))
		p.pcs = append(p.pcs, pc)
		p.entries = append(p.entries, s2Entry{last: value, seen: 1})
		return
	}
	p.marks.mark(i)
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
	p.marks.mark(i)
	e := p.entries[i]
	var n uint64
	for k < len(values) {
		// Steady state: both strides agree, so a hit implies delta ==
		// s1 == s2 and the step only saturates s1Count — the whole
		// strided stretch applies in bulk, one compare per event.
		if e.seen == 2 && e.s1 == e.s2 {
			j := k
			for j < len(values) && values[j]-e.last == e.s2 {
				hits[j] = 1
				e.last = values[j]
				j++
			}
			if m := j - k; m > 0 {
				n += uint64(m)
				if c := int(e.s1Count) + m; c >= 2 {
					e.s1Count = 2
				} else {
					e.s1Count = uint8(c)
				}
				k = j
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
	clear(p.marks)
}

// StateBytes implements Sized.
func (p *Stride2Delta) StateBytes() MemBytes {
	return p.idx.bytes().Plus(sliceBytes(p.pcs)).Plus(sliceBytes(p.entries)).Plus(sliceBytes(p.marks))
}

// TableEntries implements Sized.
func (p *Stride2Delta) TableEntries() (static, total int) {
	return len(p.entries), len(p.entries)
}

// SaveState implements Stateful: sorted (pc, last, s1, s2, s1Count, seen).
func (p *Stride2Delta) SaveState(w io.Writer) error {
	_, err := saveRecords(w, p.pcs, p.marks, false, p.encodeRec)
	return err
}

// LoadState implements Stateful.
func (p *Stride2Delta) LoadState(r io.Reader) error {
	idx, pcs, entries, err := loadRecords(r, p.Name(), decodeStride2Delta)
	if err != nil {
		return err
	}
	p.idx, p.pcs, p.entries = idx, pcs, entries
	clear(p.marks)
	return nil
}

// SaveDelta implements DeltaStateful: SaveState's records for the PCs
// stepped since the last save only.
func (p *Stride2Delta) SaveDelta(w io.Writer) (int, error) {
	return saveRecords(w, p.pcs, p.marks, true, p.encodeRec)
}

// ApplyDelta implements DeltaStateful.
func (p *Stride2Delta) ApplyDelta(r io.Reader) (int, error) {
	return applyRecords(r, p.Name(), &p.idx, &p.pcs, &p.entries, decodeStride2Delta)
}

// encodeRec writes handle h's record fields (everything but the PC).
func (p *Stride2Delta) encodeRec(e *stateEncoder, h int32) {
	ent := &p.entries[h]
	e.uvarint(ent.last)
	e.uvarint(ent.s1)
	e.uvarint(ent.s2)
	e.uvarint(uint64(ent.s1Count))
	e.uvarint(uint64(ent.seen))
}

// decodeStride2Delta reads one record's fields, the inverse of encodeRec.
func decodeStride2Delta(d *stateDecoder) s2Entry {
	return s2Entry{last: d.uvarint(), s1: d.uvarint(), s2: d.uvarint(), s1Count: uint8(d.count(2)), seen: decodeSeen(d)}
}

// PCEntries implements PerPC.
func (p *Stride2Delta) PCEntries() map[uint64]int { return onePerPC(p.pcs) }
