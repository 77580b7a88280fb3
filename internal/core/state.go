package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stateful is the durability capability: a predictor that can serialize
// its entire learned state and later restore it exactly. The tables a
// predictor accumulates are the compressed summary of the past that
// carries all of its predictive information about the future (Bialek &
// Tishby's framing), so persisting them is what lets a restarted service
// skip the cold-start learning period the paper measures.
//
// The contract is exactness: after
//
//	a.SaveState(w); b.LoadState(r)   // b fresh from the same factory
//
// a and b must be behaviorally indistinguishable — every subsequent
// Predict/Update sequence produces identical results — and SaveState must
// be reproducible: saving b again yields byte-identical output. LoadState
// replaces any existing state (implicit Reset) and must fail cleanly on
// malformed input: no panics, and allocations proportional to the bytes
// actually consumed, never to unvalidated counts from the input.
//
// The encoding is a varint-packed stream private to each predictor type;
// framing, versioning and checksums live one layer up in
// internal/snapshot. Every Predictor is Stateful, through its embedded
// DeltaStateful.
type Stateful interface {
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

// PerPC reports a predictor's per-PC table occupancy: how many internal
// entries (contexts, counters, history slots) each static instruction
// currently owns. Offline snapshot inspection (cmd/vpstate) uses it for
// per-PC entry counts and cross-snapshot drift.
type PerPC interface {
	PCEntries() map[uint64]int
}

// errState wraps state-decoding failures with the predictor name.
func errState(name string, err error) error {
	return fmt.Errorf("core: %s state: %w", name, err)
}

// errDuplicatePC flags a state stream whose delta-encoded PC sequence
// revisits a PC. Saves iterate strictly ascending PCs, so this
// only appears in corrupt or hand-built input; the flat tables reject it
// rather than silently keeping one of the records.
func errDuplicatePC(pc uint64) error {
	return fmt.Errorf("duplicate pc %#x in state", pc)
}

// stateEncoder accumulates a varint-packed state stream and writes it out
// in one call; errors are sticky so encode paths stay linear.
type stateEncoder struct {
	buf []byte
}

func (e *stateEncoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// bytes appends raw bytes with no length prefix; the decoder must know
// the length from context (e.g. fixed-width FCM context keys).
func (e *stateEncoder) bytes(b []byte) {
	e.buf = append(e.buf, b...)
}

// le64 appends v as 8 little-endian bytes — the fixed-width wire form of
// one FCM context value. Streaming values this way keeps the
// full-concatenation encoding while never materializing the string keys
// the original map-backed tables concatenated per context.
func (e *stateEncoder) le64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *stateEncoder) flushTo(w io.Writer) error {
	_, err := w.Write(e.buf)
	return err
}

// stateDecoder reads a varint-packed state stream with sticky errors. It
// distinguishes truncation (io.ErrUnexpectedEOF) from overflowing varints
// and exposes expectEOF so callers can reject trailing garbage.
type stateDecoder struct {
	r   *bufio.Reader
	err error
}

func newStateDecoder(r io.Reader) *stateDecoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &stateDecoder{r: br}
}

func (d *stateDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b, err := d.r.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			d.err = err
			return 0
		}
		if shift == 63 && b > 1 {
			d.err = errors.New("varint overflows uint64")
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

// count decodes a collection length and validates it against max, keeping
// allocation decisions honest even on hostile input.
func (d *stateDecoder) count(max uint64) uint64 {
	n := d.uvarint()
	if d.err == nil && n > max {
		d.err = fmt.Errorf("count %d exceeds limit %d", n, max)
	}
	if d.err != nil {
		return 0
	}
	return n
}

// le64 reads one fixed-width little-endian uint64 (the inverse of
// stateEncoder.le64) straight from the reader's buffer, so it never
// allocates: a local array handed to io.ReadFull would escape through
// the io.Reader interface once per key word.
func (d *stateDecoder) le64() uint64 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.Peek(8)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		d.err = err
		return 0
	}
	v := binary.LittleEndian.Uint64(b)
	d.r.Discard(8) // cannot fail: Peek just buffered these 8 bytes
	return v
}

// expectEOF fails unless the stream is fully consumed.
func (d *stateDecoder) expectEOF() error {
	if d.err != nil {
		return d.err
	}
	if _, err := d.r.ReadByte(); err == nil {
		return errors.New("trailing bytes after state")
	} else if !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}
