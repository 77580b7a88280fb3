package core

// Record deltas, the core half of incremental checkpoints. A delta holds
// only the table entries that changed since the predictor's previous
// save: the records of the PCs stepped since then, and for the FCM, those
// PCs' histories plus every context whose counts changed. Each predictor
// marks what its steps change itself: a bit per table handle for the
// per-PC predictors, and for the FCM a flag in its per-PC state and one
// in each context entry its update already writes. A delta has the
// layout of a full state, and a full state is the delta from the empty
// state: one decoder per predictor applies either, under one rule set.
// Applying is a find-or-insert of each PC and context followed by a
// wholesale replace of its state, and LoadState is an apply into empty
// tables, so a root SaveState followed by every delta cut since
// reproduces the live state exactly.

import (
	"cmp"
	"errors"
	"io"
	"slices"
)

// DeltaStateful is the incremental half of the durability capability.
//
// SaveDelta writes the state that changed since the predictor's previous
// save of either kind (SaveState or SaveDelta): a record for every PC
// stepped (by Update or StepRun) since then, holding what changed in that
// PC's state. The predictor keeps these change marks itself; both saves
// clear them, and LoadState and ApplyDelta set none. The contract is
//
//	a.SaveState(root)            // or any save a delta chain starts from
//	... updates ...; a.SaveDelta(d1)
//	... updates ...; a.SaveDelta(d2)
//	b.ApplyDelta(root); b.ApplyDelta(d1); b.ApplyDelta(d2)   // b fresh
//
// leaves b behaviorally indistinguishable from a, with byte-identical
// SaveState output. A full state is the delta from the empty state, and
// one decoder per predictor reads both under one rule set: PCs strictly
// ascend, and a stream applied to a predictor that holds no PC rejects
// an entry listed twice. LoadState is that apply into empty tables,
// swapped in on success, so ApplyDelta of a state into a fresh predictor
// accepts and rejects what LoadState does and leaves the same state.
//
// Both methods report how many table entries the delta carries, in the
// unit of Sized's total: a PC's record for the per-PC predictors, a
// context for the FCM. ApplyDelta fails cleanly on malformed input (no
// panic, allocation bounded by the bytes consumed) but, unlike LoadState,
// a failed apply leaves the receiver partly updated: discard it.
type DeltaStateful interface {
	Stateful
	SaveDelta(w io.Writer) (records int, err error)
	ApplyDelta(r io.Reader) (records int, err error)
}

// errPCOrder flags a state or delta stream whose PCs do not strictly
// ascend: every save lists its PCs in ascending order, so a repeated PC,
// or a PC delta that wraps past 2^64, is corrupt.
var errPCOrder = errors.New("PCs not strictly ascending")

// pcMarks are a per-PC predictor's change marks: one bit per table
// handle, set by every step of that PC and cleared by every save. The
// bits grow with the table, so marking allocates nothing once every PC
// has been seen.
type pcMarks []uint64

// mark sets handle h's bit.
func (m *pcMarks) mark(h int32) {
	w := int(h >> 6)
	if w >= len(*m) {
		*m = append(*m, make([]uint64, w+1-len(*m))...)
	}
	(*m)[w] |= 1 << (h & 63)
}

// has reports handle h's bit.
func (m pcMarks) has(h int32) bool {
	w := int(h >> 6)
	return w < len(m) && m[w]&(1<<(h&63)) != 0
}

// saveRecords writes a one-entry-per-PC predictor's state stream: the
// record count, then each record in ascending PC order, its PC
// delta-encoded from the previous record's and followed by enc's fields.
// That is the predictor's SaveState stream; a delta is the same layout
// restricted to the PCs marks holds. Either save clears the marks.
func saveRecords(w io.Writer, pcs []uint64, marks pcMarks, delta bool, enc func(e *stateEncoder, h int32)) (int, error) {
	hs := make([]int32, 0, len(pcs))
	for h := range pcs {
		if marks.has(int32(h)) || !delta {
			hs = append(hs, int32(h))
		}
	}
	clear(marks)
	slices.SortFunc(hs, func(a, b int32) int { return cmp.Compare(pcs[a], pcs[b]) })
	var e stateEncoder
	e.uvarint(uint64(len(hs)))
	var prev uint64
	for _, h := range hs {
		e.uvarint(pcs[h] - prev)
		enc(&e, h)
		prev = pcs[h]
	}
	return len(hs), e.flushTo(w)
}

// applyRecords applies a saveRecords stream, a state or a delta, to a
// one-entry-per-PC predictor's tables: each record replaces its PC's
// entry, and a new PC is inserted. LoadState applies into empty tables.
// A record is decoded whole before it touches the tables, so a truncated
// one changes nothing. Errors carry the predictor's name.
func applyRecords[T any](r io.Reader, name string, idx *pcTable, pcs *[]uint64, ents *[]T, dec func(*stateDecoder) T) (int, error) {
	d := newStateDecoder(r)
	n := d.uvarint()
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		next := pc + d.uvarint()
		if d.err == nil && i > 0 && next <= pc {
			return 0, errState(name, errPCOrder)
		}
		pc = next
		ent := dec(d)
		if d.err != nil {
			break
		}
		if h, ok := idx.lookup(pc); ok {
			(*ents)[h] = ent
			continue
		}
		idx.insert(pc)
		*pcs = append(*pcs, pc)
		*ents = append(*ents, ent)
	}
	if err := d.expectEOF(); err != nil {
		return 0, errState(name, err)
	}
	return int(n), nil
}
