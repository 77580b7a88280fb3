package core

// Record deltas, the core half of incremental checkpoints. A delta holds
// only the table entries that changed since the predictor's previous
// save: for the per-PC predictors, the records of the PCs the caller
// reports dirty (the Bank tracks them at batch-grouping time); for the
// FCM, those PCs' histories plus every context whose counts changed,
// which the FCM marks itself inside the context entry its update already
// writes. Applying a delta is a find-or-insert of each PC and context
// followed by a wholesale replace of its state, so a root SaveState
// followed by every delta cut since reproduces the live state exactly.

import (
	"cmp"
	"errors"
	"io"
	"slices"
)

// DeltaStateful is the incremental half of the durability capability.
//
// SaveDelta writes the state that changed since the predictor's previous
// save of either kind (SaveState or SaveDelta): a record for every PC that
// dirty reports (nil reports every PC), holding what changed in that PC's
// state. The caller owns the PC-level dirty set and must reset it at
// every save; a predictor with finer state (the FCM's contexts) keeps its
// own change marks, which both saves clear. The contract is
//
//	a.SaveState(root)            // or any save a delta chain starts from
//	... updates ...; a.SaveDelta(d1, dirty1)
//	... updates ...; a.SaveDelta(d2, dirty2)
//	b.LoadState(root); b.ApplyDelta(d1); b.ApplyDelta(d2)
//
// leaves b behaviorally indistinguishable from a, with byte-identical
// SaveState output, whenever each dirty set covers every PC updated since
// the previous save.
//
// Both methods report how many table entries the delta carries, in the
// unit of Sized's total: a PC's record for the per-PC predictors, a
// context for the FCM. ApplyDelta fails cleanly on malformed input (no
// panic, allocation bounded by the bytes consumed) but, unlike LoadState,
// a failed apply leaves the receiver partly updated: discard it.
type DeltaStateful interface {
	Stateful
	SaveDelta(w io.Writer, dirty func(pc uint64) bool) (records int, err error)
	ApplyDelta(r io.Reader) (records int, err error)
}

// errDeltaOrder flags a delta whose PCs do not strictly ascend; every
// saved delta lists its PCs in ascending order, so a repeat is corrupt.
var errDeltaOrder = errors.New("delta PCs not strictly ascending")

// dirtyHandles returns the slab handles of the PCs dirty reports (all of
// them for a nil dirty), ordered by ascending PC.
func dirtyHandles(pcs []uint64, dirty func(uint64) bool) []int32 {
	if dirty == nil {
		return sortedHandles(pcs)
	}
	var hs []int32
	for h, pc := range pcs {
		if dirty(pc) {
			hs = append(hs, int32(h))
		}
	}
	slices.SortFunc(hs, func(a, b int32) int { return cmp.Compare(pcs[a], pcs[b]) })
	return hs
}

// saveRecords writes a one-entry-per-PC predictor's state stream: the
// record count, then each record in ascending PC order, its PC
// delta-encoded from the previous record's and followed by enc's fields.
// With a nil dirty it writes every PC, which is the predictor's SaveState
// stream; a delta is the same layout restricted to the dirty PCs.
func saveRecords(w io.Writer, pcs []uint64, dirty func(uint64) bool, enc func(e *stateEncoder, h int32)) (int, error) {
	hs := dirtyHandles(pcs, dirty)
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

// loadRecords decodes a saveRecords stream into fresh tables for
// LoadState, rejecting a PC that appears twice. Errors carry the
// predictor's name.
func loadRecords[T any](r io.Reader, name string, dec func(*stateDecoder) T) (idx pcTable, pcs []uint64, ents []T, err error) {
	d := newStateDecoder(r)
	n := d.uvarint()
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		pc += d.uvarint()
		ent := dec(d)
		if d.err != nil {
			break
		}
		if _, dup := idx.lookup(pc); dup {
			return idx, nil, nil, errState(name, errDuplicatePC(pc))
		}
		idx.insert(pc)
		pcs = append(pcs, pc)
		ents = append(ents, ent)
	}
	if err := d.expectEOF(); err != nil {
		return idx, nil, nil, errState(name, err)
	}
	return idx, pcs, ents, nil
}

// applyRecords applies a saveRecords delta to live tables: each record
// replaces its PC's entry, and a new PC is inserted. A record is decoded
// whole before it touches the tables, so a truncated one changes nothing.
// Errors carry the predictor's name.
func applyRecords[T any](r io.Reader, name string, idx *pcTable, pcs *[]uint64, ents *[]T, dec func(*stateDecoder) T) (int, error) {
	d := newStateDecoder(r)
	n := d.uvarint()
	var pc uint64
	for i := uint64(0); i < n && d.err == nil; i++ {
		next := pc + d.uvarint()
		if d.err == nil && i > 0 && next <= pc {
			return 0, errState(name, errDeltaOrder)
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
