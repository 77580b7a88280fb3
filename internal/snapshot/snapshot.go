// Package snapshot is the durability layer for predictor state: a
// versioned, checksummed, varint-packed binary codec for the learned
// state of a sharded predictor bank, either whole (a root) or as a delta
// on top of a parent checkpoint, plus atomic file helpers, discovery and
// chain resolution for checkpoint directories.
//
// In the information-theoretic framing the reproduction follows (Bialek &
// Tishby's predictive information), a predictor's tables are the
// compressed summary of the past that carries all of its predictive
// information about the future. A snapshot persists exactly that summary:
// restoring one and continuing a stream must be bit-identical to never
// having stopped, which is what lets a restarted service skip the
// cold-start learning period the paper's Table 1 and Figure 2 measure.
//
// On-disk layout:
//
//	8 bytes   magic "VPSNAP01"
//	payload   varint-packed sections (below)
//	8 bytes   little-endian CRC-64/ECMA of the payload
//
// The payload is, in order: format version, creation time (unix nanos),
// total events, the parent checkpoint's ID (empty for a root) and the
// chain depth, shard count, the predictor name list, then one section
// per shard: shard id, shard events, the shard's sorted unique PCs
// (delta-encoded), and per predictor its lifetime tallies and an opaque
// state blob. A root's blobs are full core.Stateful state streams; a
// delta's are core.DeltaStateful.SaveDelta streams, which hold only what
// changed since the parent. Everything inside a blob is private to the
// predictor type; this package frames, versions and checksums it, and
// Load (chain.go) is the one place blobs become live predictors: a fresh
// predictor from the registry applies the root's blob, the delta from the
// empty state, and then every delta's, and a server, a warm bank or
// vpstate takes the result over.
// Version 1 payloads, written before checkpoints could name a parent,
// lack the parent and depth fields and decode as roots.
//
// A snapshot's ID is the hex CRC-64 of its payload — content-addressed,
// so two snapshots of identical state (and creation time) share an ID and
// any corruption changes it. A delta names its parent by that ID.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// Magic is the 8-byte file signature; the trailing "01" is the on-disk
// generation and changes only on incompatible layout changes.
const Magic = "VPSNAP01"

// FormatVersion is the payload schema version written by Encode.
const FormatVersion = 2

// Decoding limits: generous for real deployments, tight enough that a
// hostile header cannot demand absurd allocations before the bytes
// backing them have actually been read.
const (
	maxShards     = 1 << 16
	maxPredictors = 1024
	maxNameLen    = 256
	// maxChainDepth bounds a delta's depth and parent walks, so a corrupt
	// or adversarial parent graph cannot loop forever.
	maxChainDepth = 4096
)

// ErrChecksum reports a payload whose trailer CRC does not match.
var ErrChecksum = errors.New("snapshot: checksum mismatch")

// crcTable is the CRC-64/ECMA table shared by encode and decode.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta describes a snapshot as a whole.
type Meta struct {
	// FormatVersion is the payload schema version read from the file.
	FormatVersion int
	// ID is the content-addressed snapshot identifier (hex CRC-64 of the
	// payload). Filled by Encode and Decode; ignored as input.
	ID string
	// ParentID names the checkpoint a delta applies on top of; empty for
	// a root, whose state blobs are complete.
	ParentID string
	// Depth is the number of deltas between this checkpoint and its
	// chain's root: 0 for a root, the parent's depth + 1 for a delta.
	Depth int
	// CreatedUnixNano is the checkpoint wall-clock time.
	CreatedUnixNano int64
	// Events is the total event count across shards at checkpoint time.
	Events uint64
	// Shards is the number of shard sections.
	Shards int
	// Predictors is the bank's predictor names, in bank order.
	Predictors []string
}

// PredState is one predictor's persisted state within one shard.
type PredState struct {
	// Name is the registry name; always equal to the matching entry of
	// Meta.Predictors.
	Name string
	// Correct and Total are the predictor's lifetime tally on this shard.
	Correct uint64
	Total   uint64
	// State is the opaque predictor blob: a full state stream in a root,
	// a SaveDelta stream in a delta.
	State []byte
}

// ShardState is one shard's full persisted state.
type ShardState struct {
	// Shard is the shard index in [0, Meta.Shards).
	Shard int
	// Events is the shard's lifetime event count.
	Events uint64
	// PCs is the shard's set of observed PCs, ascending and unique.
	PCs []uint64
	// Preds holds one entry per bank predictor, in bank order.
	Preds []PredState
}

// Snapshot is a fully decoded snapshot.
type Snapshot struct {
	Meta   Meta
	Shards []ShardState
}

// StateBytes returns the total size of the opaque predictor state blobs,
// the dominant term of the file size.
func (s *Snapshot) StateBytes() int {
	n := 0
	for _, sh := range s.Shards {
		for _, p := range sh.Preds {
			n += len(p.State)
		}
	}
	return n
}

// Encode writes the snapshot and returns its content-addressed ID. The
// output is canonical: Meta.Events and Meta.Shards are derived from the
// shard sections, and shard sections must arrive ordered by shard id with
// ascending PCs (Encode validates rather than silently reorders, since
// out-of-order input indicates a bug in the capture path).
func Encode(w io.Writer, s *Snapshot) (string, error) {
	if len(s.Shards) == 0 || len(s.Shards) > maxShards {
		return "", fmt.Errorf("snapshot: invalid shard count %d", len(s.Shards))
	}
	if len(s.Meta.Predictors) == 0 || len(s.Meta.Predictors) > maxPredictors {
		return "", fmt.Errorf("snapshot: invalid predictor count %d", len(s.Meta.Predictors))
	}
	if err := checkLink(s.Meta.ParentID, s.Meta.Depth); err != nil {
		return "", err
	}

	// Size the buffer up front (every uvarint at its longest): grown by
	// append, it would allocate several times a checkpoint's bytes per
	// cut, garbage that paces the collector on a live server.
	const v = binary.MaxVarintLen64
	size := 8*v + len(s.Meta.ParentID)
	for _, name := range s.Meta.Predictors {
		size += v + len(name)
	}
	for _, sh := range s.Shards {
		size += 3*v + v*len(sh.PCs)
		for _, ps := range sh.Preds {
			size += 3*v + len(ps.State)
		}
	}
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, FormatVersion)
	b = binary.AppendUvarint(b, uint64(s.Meta.CreatedUnixNano))
	var events uint64
	for _, sh := range s.Shards {
		events += sh.Events
	}
	b = binary.AppendUvarint(b, events)
	b = binary.AppendUvarint(b, uint64(len(s.Meta.ParentID)))
	b = append(b, s.Meta.ParentID...)
	b = binary.AppendUvarint(b, uint64(s.Meta.Depth))
	b = binary.AppendUvarint(b, uint64(len(s.Shards)))
	b = binary.AppendUvarint(b, uint64(len(s.Meta.Predictors)))
	for _, name := range s.Meta.Predictors {
		if len(name) == 0 || len(name) > maxNameLen {
			return "", fmt.Errorf("snapshot: invalid predictor name %q", name)
		}
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	for i, sh := range s.Shards {
		if sh.Shard != i {
			return "", fmt.Errorf("snapshot: shard section %d has id %d (must be ordered, gap-free)", i, sh.Shard)
		}
		if len(sh.Preds) != len(s.Meta.Predictors) {
			return "", fmt.Errorf("snapshot: shard %d has %d predictors, bank has %d",
				i, len(sh.Preds), len(s.Meta.Predictors))
		}
		b = binary.AppendUvarint(b, uint64(sh.Shard))
		b = binary.AppendUvarint(b, sh.Events)
		b = binary.AppendUvarint(b, uint64(len(sh.PCs)))
		var prev uint64
		for j, pc := range sh.PCs {
			if j > 0 && pc <= prev {
				return "", fmt.Errorf("snapshot: shard %d PCs not strictly ascending", i)
			}
			b = binary.AppendUvarint(b, pc-prev)
			prev = pc
		}
		for j, ps := range sh.Preds {
			if ps.Name != s.Meta.Predictors[j] {
				return "", fmt.Errorf("snapshot: shard %d predictor %d is %q, bank says %q",
					i, j, ps.Name, s.Meta.Predictors[j])
			}
			b = binary.AppendUvarint(b, ps.Correct)
			b = binary.AppendUvarint(b, ps.Total)
			b = binary.AppendUvarint(b, uint64(len(ps.State)))
			b = append(b, ps.State...)
		}
	}

	crc := crc64.Checksum(b, crcTable)
	id := fmt.Sprintf("%016x", crc)
	if _, err := w.Write([]byte(Magic)); err != nil {
		return "", err
	}
	if _, err := w.Write(b); err != nil {
		return "", err
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return "", err
	}
	s.Meta.FormatVersion = FormatVersion
	s.Meta.ID = id
	s.Meta.Events = events
	s.Meta.Shards = len(s.Shards)
	return id, nil
}

// DecodeBytes decodes and verifies a snapshot from an in-memory image.
// Malformed input yields an error, never a panic, and allocations stay
// proportional to the bytes actually present.
func DecodeBytes(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("snapshot: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(Magic)])
	}
	return decodePayload(data[len(Magic):])
}

// decodePayload parses payload+trailer (everything after the magic).
func decodePayload(b []byte) (*Snapshot, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("snapshot: %w", io.ErrUnexpectedEOF)
	}
	payload, trailer := b[:len(b)-8], b[len(b)-8:]
	crc := crc64.Checksum(payload, crcTable)
	if binary.LittleEndian.Uint64(trailer) != crc {
		return nil, ErrChecksum
	}

	d := &sdec{p: payload}
	s := &Snapshot{}
	version := d.uvarint()
	if d.err == nil && (version == 0 || version > FormatVersion) {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (supported: 1..%d)", version, FormatVersion)
	}
	s.Meta.FormatVersion = int(version)
	s.Meta.ID = fmt.Sprintf("%016x", crc)
	s.Meta.CreatedUnixNano = int64(d.uvarint())
	s.Meta.Events = d.uvarint()
	if version >= 2 {
		s.Meta.ParentID = string(d.bytes(d.count(maxNameLen)))
		s.Meta.Depth = int(d.count(maxChainDepth))
		if d.err == nil {
			if err := checkLink(s.Meta.ParentID, s.Meta.Depth); err != nil {
				return nil, err
			}
		}
	}
	nshards := d.count(maxShards)
	npred := d.count(maxPredictors)
	if d.err == nil && (nshards == 0 || npred == 0) {
		return nil, errors.New("snapshot: empty shard or predictor list")
	}
	s.Meta.Shards = int(nshards)
	for i := uint64(0); i < npred && d.err == nil; i++ {
		s.Meta.Predictors = append(s.Meta.Predictors, string(d.bytes(d.count(maxNameLen))))
	}

	var sumEvents uint64
	for i := uint64(0); i < nshards && d.err == nil; i++ {
		sh := ShardState{Shard: int(d.uvarint())}
		if d.err == nil && sh.Shard != int(i) {
			return nil, fmt.Errorf("snapshot: shard section %d has id %d", i, sh.Shard)
		}
		sh.Events = d.uvarint()
		sumEvents += sh.Events
		npc := d.count(uint64(len(d.p))) // each PC is at least one byte
		var pc uint64
		for j := uint64(0); j < npc && d.err == nil; j++ {
			next := pc + d.uvarint()
			if j > 0 && next <= pc { // zero delta or uint64 wraparound
				return nil, fmt.Errorf("snapshot: shard %d PCs not strictly ascending", i)
			}
			pc = next
			sh.PCs = append(sh.PCs, pc)
		}
		for j := uint64(0); j < npred && d.err == nil; j++ {
			ps := PredState{Name: s.Meta.Predictors[j]}
			ps.Correct = d.uvarint()
			ps.Total = d.uvarint()
			ps.State = d.bytes(d.count(uint64(len(d.p))))
			sh.Preds = append(sh.Preds, ps)
		}
		s.Shards = append(s.Shards, sh)
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: %w", d.err)
	}
	if len(d.p) != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last shard", len(d.p))
	}
	if sumEvents != s.Meta.Events {
		return nil, fmt.Errorf("snapshot: header claims %d events, shards sum to %d", s.Meta.Events, sumEvents)
	}
	return s, nil
}

// checkLink validates a checkpoint's place in its chain: a root has no
// parent and depth 0, a delta has both.
func checkLink(parentID string, depth int) error {
	switch {
	case len(parentID) > maxNameLen:
		return fmt.Errorf("snapshot: parent ID of %d bytes", len(parentID))
	case depth < 0 || depth > maxChainDepth:
		return fmt.Errorf("snapshot: chain depth %d out of range", depth)
	case parentID == "" && depth != 0:
		return fmt.Errorf("snapshot: root checkpoint with depth %d", depth)
	case parentID != "" && depth == 0:
		return errors.New("snapshot: delta checkpoint with depth 0")
	}
	return nil
}

// sdec is a sticky-error cursor over the in-memory payload. Counts are
// validated against the remaining payload length, so no element count can
// request memory the input does not back.
type sdec struct {
	p   []byte
	err error
}

func (d *sdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		if n == 0 {
			d.err = io.ErrUnexpectedEOF
		} else {
			d.err = errors.New("varint overflows uint64")
		}
		return 0
	}
	d.p = d.p[n:]
	return v
}

// count decodes an element count and bounds it by max.
func (d *sdec) count(max uint64) uint64 {
	n := d.uvarint()
	if d.err == nil && n > max {
		d.err = fmt.Errorf("count %d exceeds limit %d", n, max)
		return 0
	}
	return n
}

// bytes consumes exactly n bytes of payload.
func (d *sdec) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.p)) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := make([]byte, n)
	copy(out, d.p[:n])
	d.p = d.p[n:]
	return out
}
