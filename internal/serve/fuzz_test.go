package serve

import (
	"bufio"
	"bytes"
	"slices"
	"testing"

	otrace "repro/internal/obs/trace"
)

// FuzzFrameDecode drives arbitrary bytes through the connection reader's
// decode path — readFrame, decodeTraceHeader for traced frames, then
// decodeEventsInto into reused scratch — frame after frame until the
// stream fails, as handleConn does. It must never panic, and every frame
// it accepts must re-encode to a frame that decodes to the same trace
// context and events.
func FuzzFrameDecode(f *testing.F) {
	evs := []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}, {}}
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	for _, frame := range [][]byte{
		appendEvents(nil, evs),
		appendEventsTraced(nil, evs, otrace.Context{TraceID: 1, SpanID: 2, Flags: otrace.FlagSampled}),
		appendEvents(nil, nil),
	} {
		if err := writeFrame(bw, frame); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, msgEventsTraced, 1, 2, 3, 4}) // truncated trace header
	f.Add([]byte{3, 0, 0, 0, msgEvents, 0xff, 0x01})       // count past the frame's capacity
	f.Add([]byte{4, 0, 0, 0, msgEvents, 1, 0x80, 0x80})    // truncated varint
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
			body := frame[1:]
			switch frame[0] {
			case msgEvents:
			case msgEventsTraced:
				if ctx, body, err = decodeTraceHeader(body); err != nil {
					return
				}
			default:
				return // handleConn rejects every other frame type
			}
			if scratch, err = decodeEventsInto(body, scratch[:0]); err != nil {
				return
			}
			gotCtx, gotBody, err := decodeTraceHeader(appendEventsTraced(nil, scratch, ctx)[1:])
			if err != nil || gotCtx != ctx {
				t.Fatalf("trace header round trip: %+v, %v; want %+v", gotCtx, err, ctx)
			}
			got, err := decodeEvents(gotBody)
			if err != nil || !slices.Equal(got, scratch) {
				t.Fatalf("events round trip: %d events, %v; want %d", len(got), err, len(scratch))
			}
		}
	})
}
