package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	otrace "repro/internal/obs/trace"
)

// Wire protocol: every message is a length-prefixed frame — a little-endian
// uint32 payload length followed by the payload, whose first byte is the
// message type.
//
//	server → client on connect:   hello   (version, shard count, prior events, predictor names)
//	client → server, repeated:    events  (trace id, span id, flags, count, count × (uvarint pc, uvarint value))
//	server → client, in order:    result  (count, per-predictor correct counts)
//	server → client on error:     error   (message), then the connection closes
//
// Requests may be pipelined: the client can send any number of events
// frames before reading results; the server answers strictly in request
// order. A client that is done sending half-closes the write side; the
// server flushes the remaining results and closes.
//
// Version history:
//
//	v1: hello / events / result / error.
//	v2: adds eventsT (type 5) — an events frame prefixed by a 17-byte
//	    trace header (8-byte LE trace id, 8-byte LE span id, 1 flags byte).
//	v3: one events frame (type 2) that always carries the trace header;
//	    an all-zero header means untraced, and type 5 is retired. Both
//	    sides speak only v3: a client rejects any other hello version,
//	    and v1/v2 clients reject a v3 hello, which is the intended
//	    "upgrade me" signal.
const (
	protoVersion = 3

	msgHello  = 1
	msgEvents = 2
	msgResult = 3
	msgError  = 4

	// traceHeaderLen is the fixed events-frame prefix after the type
	// byte: trace id + span id + flags.
	traceHeaderLen = 8 + 8 + 1

	// maxFrame bounds a single frame payload (64 MiB) so a corrupt or
	// hostile length prefix cannot trigger an absurd allocation.
	maxFrame = 1 << 26

	// frameChunk is the first growth step of a frame buffer that is too
	// small for the declared length; later steps double it.
	frameChunk = 64 << 10
)

// writeFrame emits one length-prefixed frame. Oversized payloads are
// rejected locally — the peer would refuse them anyway, and payloads past
// 4 GiB would silently wrap the uint32 length prefix. The prefix goes
// byte-wise into the bufio buffer: a stack [4]byte would escape into the
// writer's interface call and put one allocation on every frame.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("serve: frame payload %d bytes exceeds limit %d (use a smaller batch)", len(payload), maxFrame)
	}
	n := uint32(len(payload))
	for shift := 0; shift < 32; shift += 8 {
		if err := w.WriteByte(byte(n >> shift)); err != nil {
			return err
		}
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf (grown as needed) and returns the
// payload. A clean io.EOF before the length prefix means the peer is done.
// The prefix is peeked out of the bufio buffer rather than ReadFull'd
// into a scratch array, for the same no-allocation reason as writeFrame.
// The buffer grows only as payload arrives — doubling from frameChunk up
// to the declared length — so a peer that declares a large frame and
// stalls pins no more memory than it has sent.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		// Match io.ReadFull's contract: a clean EOF before the prefix
		// passes through, EOF mid-prefix is ErrUnexpectedEOF, and any
		// real transport error (reset, timeout) propagates verbatim.
		if errors.Is(err, io.EOF) && len(hdr) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	r.Discard(4)
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("serve: bad frame length %d", n)
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(max(2*cap(buf), frameChunk), int(n))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), int(n))])
		buf = buf[:len(buf)+got]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// appendHello encodes the connect-time greeting: shard count, the
// server's lifetime event count at this instant (so clients can tell a
// fresh server from a warm one), and the predictor bank.
func appendHello(buf []byte, shards int, priorEvents uint64, preds []string) []byte {
	buf = append(buf, msgHello, protoVersion)
	buf = binary.AppendUvarint(buf, uint64(shards))
	buf = binary.AppendUvarint(buf, priorEvents)
	buf = binary.AppendUvarint(buf, uint64(len(preds)))
	for _, p := range preds {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// decodeHello parses a hello payload (after the type byte).
func decodeHello(p []byte) (shards int, priorEvents uint64, preds []string, err error) {
	if len(p) < 1 {
		return 0, 0, nil, io.ErrUnexpectedEOF
	}
	if p[0] != protoVersion {
		return 0, 0, nil, fmt.Errorf("serve: protocol version %d, want %d", p[0], protoVersion)
	}
	p = p[1:]
	ns, p, err := uvarint(p)
	if err != nil {
		return 0, 0, nil, err
	}
	priorEvents, p, err = uvarint(p)
	if err != nil {
		return 0, 0, nil, err
	}
	np, p, err := uvarint(p)
	if err != nil {
		return 0, 0, nil, err
	}
	if np > 1024 {
		return 0, 0, nil, fmt.Errorf("serve: unreasonable predictor count %d", np)
	}
	preds = make([]string, np)
	for i := range preds {
		var n uint64
		n, p, err = uvarint(p)
		if err != nil {
			return 0, 0, nil, err
		}
		if uint64(len(p)) < n {
			return 0, 0, nil, io.ErrUnexpectedEOF
		}
		preds[i] = string(p[:n])
		p = p[n:]
	}
	return int(ns), priorEvents, preds, nil
}

// appendEvents encodes an events frame: the fixed trace header (all
// zero for an untraced request), then the events body.
func appendEvents(buf []byte, evs []Event, ctx otrace.Context) []byte {
	buf = append(buf, msgEvents)
	buf = binary.LittleEndian.AppendUint64(buf, ctx.TraceID)
	buf = binary.LittleEndian.AppendUint64(buf, ctx.SpanID)
	buf = append(buf, ctx.Flags)
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for _, ev := range evs {
		buf = binary.AppendUvarint(buf, ev.PC)
		buf = binary.AppendUvarint(buf, ev.Value)
	}
	return buf
}

// decodeRequest is the connection reader's whole decode step for one
// client frame payload as readFrame returns it (never empty): the type
// byte, the trace header, then the events body, parsed into the backing
// arrays of pcs and vals as decodeEventsInto does. When only the body is
// malformed the trace context is still returned, so a traced request
// that failed to decode can be retained for inspection.
func decodeRequest(p []byte, pcs, vals []uint64) (otrace.Context, []uint64, []uint64, error) {
	if p[0] != msgEvents {
		return otrace.Context{}, nil, nil, fmt.Errorf("serve: unexpected message type %d", p[0])
	}
	ctx, body, err := decodeTraceHeader(p[1:])
	if err != nil {
		return otrace.Context{}, nil, nil, err
	}
	pcs, vals, err = decodeEventsInto(body, pcs, vals)
	return ctx, pcs, vals, err
}

// decodeEventsInto parses an events body (after the trace header)
// straight into struct-of-arrays form, event j's PC in pcs[j] and its
// value in vals[j], reusing both backing arrays and growing them only
// when the batch outsizes every previous one — the connection reader's
// steady state decodes with zero allocation. The result is scratch:
// dispatch buckets it by shard into the request's own pooled arrays,
// which is what the shards step.
func decodeEventsInto(p []byte, pcs, vals []uint64) ([]uint64, []uint64, error) {
	n, p, err := uvarint(p)
	if err != nil {
		return nil, nil, err
	}
	// Each event takes at least two bytes on the wire, so a count claiming
	// more than len(p)/2 events is corrupt — reject it before allocating.
	if n > uint64(len(p)/2) {
		return nil, nil, fmt.Errorf("serve: event count %d exceeds frame capacity", n)
	}
	if uint64(cap(pcs)) < n || uint64(cap(vals)) < n {
		pcs, vals = make([]uint64, n), make([]uint64, n)
	}
	pcs, vals = pcs[:n], vals[:n]
	for i := range pcs {
		if pcs[i], p, err = uvarint(p); err != nil {
			return nil, nil, err
		}
		if vals[i], p, err = uvarint(p); err != nil {
			return nil, nil, err
		}
	}
	if len(p) != 0 {
		return nil, nil, fmt.Errorf("serve: %d trailing bytes in events frame", len(p))
	}
	return pcs, vals, nil
}

// decodeTraceHeader splits an events payload (after the type byte) into
// its trace context and the events body that follows.
func decodeTraceHeader(p []byte) (otrace.Context, []byte, error) {
	if len(p) < traceHeaderLen {
		return otrace.Context{}, nil, io.ErrUnexpectedEOF
	}
	ctx := otrace.Context{
		TraceID: binary.LittleEndian.Uint64(p),
		SpanID:  binary.LittleEndian.Uint64(p[8:]),
		Flags:   p[16],
	}
	return ctx, p[traceHeaderLen:], nil
}

func appendResult(buf []byte, events uint64, correct []uint64) []byte {
	buf = append(buf, msgResult)
	buf = binary.AppendUvarint(buf, events)
	for _, c := range correct {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf
}

// decodeResult parses a result payload (after the type byte) for a server
// configured with npred predictors.
func decodeResult(p []byte, npred int) (events uint64, correct []uint64, err error) {
	correct = make([]uint64, npred)
	events, err = decodeResultInto(p, correct)
	if err != nil {
		return 0, nil, err
	}
	return events, correct, nil
}

// decodeResultInto is decodeResult into a caller-owned correct slice
// (len(correct) fixes the expected predictor count), the allocation-free
// steady state of the client's receive path.
func decodeResultInto(p []byte, correct []uint64) (events uint64, err error) {
	events, p, err = uvarint(p)
	if err != nil {
		return 0, err
	}
	for i := range correct {
		correct[i], p, err = uvarint(p)
		if err != nil {
			return 0, err
		}
	}
	if len(p) != 0 {
		return 0, fmt.Errorf("serve: %d trailing bytes in result frame", len(p))
	}
	return events, nil
}

func appendError(buf []byte, msg string) []byte {
	buf = append(buf, msgError)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	return append(buf, msg...)
}

func decodeError(p []byte) string {
	n, p, err := uvarint(p)
	if err != nil || uint64(len(p)) < n {
		return "malformed error frame"
	}
	return string(p[:n])
}

// uvarint decodes one varint from p, returning the remainder.
func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return v, p[n:], nil
}
