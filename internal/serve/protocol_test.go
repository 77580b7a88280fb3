package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	otrace "repro/internal/obs/trace"
)

func TestHelloRoundTrip(t *testing.T) {
	buf := appendHello(nil, 7, 123456, []string{"l", "s2", "fcm3"})
	if buf[0] != msgHello {
		t.Fatalf("type byte = %d", buf[0])
	}
	shards, prior, preds, err := decodeHello(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if shards != 7 || prior != 123456 || len(preds) != 3 || preds[2] != "fcm3" {
		t.Fatalf("decoded shards=%d prior=%d preds=%v", shards, prior, preds)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	in := []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}, {PC: 0, Value: 0}}
	buf := appendEvents(nil, in)
	out, err := decodeEvents(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestEventsTracedRoundTrip(t *testing.T) {
	in := []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}}
	ctx := otrace.Context{TraceID: 0xdeadbeef12345678, SpanID: 0xabc, Flags: otrace.FlagSampled}
	buf := appendEventsTraced(nil, in, ctx)
	if buf[0] != msgEventsTraced {
		t.Fatalf("type byte = %d", buf[0])
	}
	got, body, err := decodeTraceHeader(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got != ctx {
		t.Fatalf("context = %+v, want %+v", got, ctx)
	}
	out, err := decodeEvents(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("events = %+v, want %+v", out, in)
	}
	// The traced body past the header is bit-identical to the untraced
	// encoding — both frame versions share one events codec.
	untraced := appendEvents(nil, in)
	if !bytes.Equal(body, untraced[1:]) {
		t.Fatal("traced body diverges from untraced encoding")
	}
}

func TestDecodeTraceHeaderMalformed(t *testing.T) {
	// Header shorter than the fixed 17 bytes.
	for n := 0; n < traceHeaderLen; n++ {
		if _, _, err := decodeTraceHeader(make([]byte, n)); err == nil {
			t.Fatalf("truncated trace header (%d bytes) accepted", n)
		}
	}
	// Valid header, corrupt body.
	ctx := otrace.Context{TraceID: 1, SpanID: 2}
	buf := appendEventsTraced(nil, []Event{{PC: 1, Value: 2}}, ctx)
	_, body, err := decodeTraceHeader(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEvents(append(body[:len(body):len(body)], 0xFF)); err == nil {
		t.Fatal("trailing bytes in traced body accepted")
	}
}

func TestHelloAcceptsBothVersions(t *testing.T) {
	// A v1 hello (old server) must still decode on a new client.
	buf := appendHello(nil, 3, 9, []string{"l"})
	v1 := append([]byte{}, buf[1:]...)
	v1[0] = 1
	shards, prior, preds, err := decodeHello(v1)
	if err != nil {
		t.Fatalf("v1 hello rejected: %v", err)
	}
	if shards != 3 || prior != 9 || len(preds) != 1 {
		t.Fatalf("v1 hello decoded wrong: %d %d %v", shards, prior, preds)
	}
	// Unknown future version still rejected.
	v9 := append([]byte{}, buf[1:]...)
	v9[0] = 9
	if _, _, _, err := decodeHello(v9); err == nil {
		t.Fatal("future protocol version accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	buf := appendResult(nil, 1000, []uint64{5, 0, 999})
	events, correct, err := decodeResult(buf[1:], 3)
	if err != nil {
		t.Fatal(err)
	}
	if events != 1000 || correct[0] != 5 || correct[2] != 999 {
		t.Fatalf("decoded events=%d correct=%v", events, correct)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := decodeEvents([]byte{}); err == nil {
		t.Error("empty events payload accepted")
	}
	// Count says 2 events but only one follows.
	if _, err := decodeEvents([]byte{2, 0x10, 0x20}); err == nil {
		t.Error("short events payload accepted")
	}
	// Trailing garbage after a well-formed event.
	buf := appendEvents(nil, []Event{{PC: 1, Value: 2}})
	if _, err := decodeEvents(append(buf[1:], 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, _, _, err := decodeHello([]byte{99}); err == nil {
		t.Error("wrong protocol version accepted")
	}
	// Event count claiming more events than the frame could hold must be
	// rejected before allocation.
	if _, err := decodeEvents(binary.AppendUvarint(nil, 1<<20)); err == nil {
		t.Error("oversized event count accepted")
	}
	if _, _, err := decodeResult([]byte{10}, 3); err == nil {
		t.Error("short result accepted")
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var nw bytes.Buffer
	bw := bufio.NewWriter(&nw)
	payload := []byte{msgEvents, 0}
	if err := writeFrame(bw, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := readFrame(bufio.NewReader(&nw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %v", got)
	}

	// Absurd length prefix must be rejected, not allocated.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(bad)), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload must surface ErrUnexpectedEOF, not clean EOF.
	trunc := []byte{8, 0, 0, 0, 1, 2}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(trunc)), nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// patternReader yields n bytes, byte i being i mod 251, without holding
// them in memory.
type patternReader struct{ off, n int }

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off == r.n {
		return 0, io.EOF
	}
	k := min(len(p), r.n-r.off)
	for i := range p[:k] {
		p[i] = byte((r.off + i) % 251)
	}
	r.off += k
	return k, nil
}

// TestReadFrameAllocatesWhatArrives: a length prefix is a claim, not
// payload. A prefix that declares the largest legal frame, followed by 16
// bytes and EOF, must fail with io.ErrUnexpectedEOF having allocated
// about what arrived rather than the 64 MiB declared, or an idle peer
// could pin that much per connection. A frame of exactly maxFrame bytes
// must still decode.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, maxFrame)
	short := append(bytes.Clone(hdr), make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(short)), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("stalled %d-byte frame: err = %v, want io.ErrUnexpectedEOF", maxFrame, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading 16 bytes of a declared %d-byte frame allocated %d bytes, want < 1 MiB", maxFrame, got)
	}

	full := io.MultiReader(bytes.NewReader(hdr), &patternReader{n: maxFrame})
	got, err := readFrame(bufio.NewReader(full), nil)
	if err != nil {
		t.Fatalf("frame of maxFrame bytes: %v", err)
	}
	if len(got) != maxFrame {
		t.Fatalf("frame of maxFrame bytes decoded to %d bytes", len(got))
	}
	for i, b := range got {
		if b != byte(i%251) {
			t.Fatalf("frame byte %d = %d, want %d", i, b, byte(i%251))
		}
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		counts := make([]int, shards)
		for pc := uint64(0); pc < 4096; pc += 4 {
			s := ShardOf(pc, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d", pc, shards, s)
			}
			if s != ShardOf(pc, shards) {
				t.Fatal("ShardOf not deterministic")
			}
			counts[s]++
		}
		// Consecutive PCs should spread: no shard may own everything.
		for s, c := range counts {
			if shards > 1 && c == 1024 {
				t.Fatalf("shard %d of %d owns all PCs", s, shards)
			}
		}
	}
}
