package serve

import (
	"bufio"
	"bytes"
	"slices"
	"testing"

	otrace "repro/internal/obs/trace"
)

// FuzzFrameDecode drives arbitrary bytes through the connection reader's
// decode path — readFrame, then decodeRequest into reused scratch, the
// two calls handleConn makes — frame after frame until the stream fails.
// It must never panic, and every frame it accepts must re-encode to a
// frame that decodes to the same trace context and events.
func FuzzFrameDecode(f *testing.F) {
	evs := []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}, {}}
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	for _, frame := range [][]byte{
		appendEvents(nil, evs, otrace.Context{}),
		appendEvents(nil, evs, otrace.Context{TraceID: 1, SpanID: 2, Flags: otrace.FlagSampled}),
		appendEvents(nil, nil, otrace.Context{}),
	} {
		if err := writeFrame(bw, frame); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	// header is an all-zero (untraced) trace header, the prefix of every
	// hand-built events body below.
	header := make([]byte, traceHeaderLen)
	frameOf := func(payload ...byte) []byte {
		p := append([]byte{msgEvents}, payload...)
		return append([]byte{byte(len(p)), 0, 0, 0}, p...)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(frameOf(1, 2, 3, 4))                       // truncated trace header
	f.Add(frameOf(append(header, 0xff, 0x01)...))    // count past the frame's capacity
	f.Add(frameOf(append(header, 1, 0x80, 0x80)...)) // truncated varint
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var frame []byte
		var scratch []Event
		for {
			var err error
			if frame, err = readFrame(br, frame); err != nil {
				return
			}
			var ctx otrace.Context
			if ctx, scratch, err = decodeRequest(frame, scratch[:0]); err != nil {
				return
			}
			gotCtx, got, err := decodeRequest(appendEvents(nil, scratch, ctx), nil)
			if err != nil || gotCtx != ctx || !slices.Equal(got, scratch) {
				t.Fatalf("round trip: %+v, %d events, %v; want %+v, %d events", gotCtx, len(got), err, ctx, len(scratch))
			}
		}
	})
}
