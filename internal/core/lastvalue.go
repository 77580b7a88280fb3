package core

import "io"

// LastValue is the paper's simplest computational predictor: the identity
// function on the previous value. This variant always updates (no
// hysteresis), matching the "l" configuration simulated in the paper.
type LastValue struct {
	idx   pcTable
	pcs   []uint64
	vals  []uint64
	marks pcMarks // PCs stepped since the last save
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
	i, ok := p.idx.lookup(pc)
	if !ok {
		i = p.idx.insert(pc)
		p.pcs = append(p.pcs, pc)
		p.vals = append(p.vals, value)
	}
	p.vals[i] = value
	p.marks.mark(i)
}

// StepRun implements Predictor: one table probe for the whole run, then
// an adjacent compare — within a same-PC run the prediction for
// values[k] is simply values[k-1].
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
	p.marks.mark(i)
	prev := p.vals[i]
	rest := values[k:]
	hs := hits[k:][:len(rest)]
	var n uint64
	for j, v := range rest {
		h := b2u8(v == prev)
		hs[j] = h
		n += uint64(h)
		prev = v
	}
	p.vals[i] = prev
	return n
}

// Reset implements Resetter.
func (p *LastValue) Reset() {
	p.idx.reset()
	p.pcs = p.pcs[:0]
	p.vals = p.vals[:0]
	clear(p.marks)
}

// StateBytes implements Sized.
func (p *LastValue) StateBytes() MemBytes {
	return p.idx.bytes().Plus(sliceBytes(p.pcs)).Plus(sliceBytes(p.vals)).Plus(sliceBytes(p.marks))
}

// TableEntries implements Sized.
func (p *LastValue) TableEntries() (static, total int) {
	return len(p.vals), len(p.vals)
}

// SaveState implements Stateful: sorted (pc, value) pairs, PCs
// delta-encoded.
func (p *LastValue) SaveState(w io.Writer) error {
	_, err := saveRecords(w, p.pcs, p.marks, false, p.encodeRec)
	return err
}

// LoadState implements Stateful: the state applied to empty tables,
// which replace p's on success.
func (p *LastValue) LoadState(r io.Reader) error {
	var q LastValue
	if _, err := q.ApplyDelta(r); err != nil {
		return err
	}
	p.idx, p.pcs, p.vals = q.idx, q.pcs, q.vals
	clear(p.marks)
	return nil
}

// SaveDelta implements DeltaStateful: SaveState's records for the PCs
// stepped since the last save only.
func (p *LastValue) SaveDelta(w io.Writer) (int, error) {
	return saveRecords(w, p.pcs, p.marks, true, p.encodeRec)
}

// ApplyDelta implements DeltaStateful.
func (p *LastValue) ApplyDelta(r io.Reader) (int, error) {
	return applyRecords(r, p.Name(), &p.idx, &p.pcs, &p.vals, decodeLastValue)
}

// encodeRec writes handle h's record fields (everything but the PC).
func (p *LastValue) encodeRec(e *stateEncoder, h int32) {
	e.uvarint(p.vals[h])
}

// decodeLastValue reads one record's fields, the inverse of encodeRec.
func decodeLastValue(d *stateDecoder) uint64 { return d.uvarint() }

// PCEntries implements PerPC: one table entry per static instruction.
func (p *LastValue) PCEntries() map[uint64]int { return onePerPC(p.pcs) }
