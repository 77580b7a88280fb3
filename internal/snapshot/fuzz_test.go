package snapshot

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// fuzzPredictorNames is the name pool snapshotFromBytes draws banks from;
// fcm8 puts the high-order slab-backed FCM tables in the fuzzed loop.
var fuzzPredictorNames = []string{"l", "s2", "fcm3", "fcm8"}

// fuzzConstructors builds a fresh predictor for each pool name, so the
// fuzz can push every State blob through the real LoadState (fcm8 is not
// a registry spelling, hence no FactoryByName here).
var fuzzConstructors = map[string]func() core.Predictor{
	"l":    func() core.Predictor { return core.NewLastValue() },
	"s2":   func() core.Predictor { return core.NewStride2Delta() },
	"fcm3": func() core.Predictor { return core.NewFCM(3) },
	"fcm8": func() core.Predictor { return core.NewFCM(8) },
}

// snapshotFromBytes derives a deterministic, always-valid snapshot from
// fuzz input so the round-trip property gets exercised over arbitrary
// shard counts, PC sets and blob contents. Layout consumed per field is
// intentionally simple: the fuzzer mutates structure and content alike.
// State blob lengths are 16-bit so seed blobs can hold complete predictor
// states (an order-8 FCM image runs to a few KiB).
func snapshotFromBytes(data []byte) *Snapshot {
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	byteAt := func() byte {
		b := take(1)
		if len(b) == 0 {
			return 0
		}
		return b[0]
	}

	nshards := int(byteAt()%4) + 1
	npred := int(byteAt()) % len(fuzzPredictorNames)
	names := fuzzPredictorNames[:npred+1]

	s := &Snapshot{Meta: Meta{
		CreatedUnixNano: int64(binary.LittleEndian.Uint32(append(take(4), 0, 0, 0, 0))),
		Predictors:      names,
	}}
	for i := 0; i < nshards; i++ {
		sh := ShardState{Shard: i, Events: uint64(byteAt()) * 17}
		npc := int(byteAt() % 8)
		pc := uint64(0)
		for j := 0; j < npc; j++ {
			pc += uint64(byteAt()) + 1 // strictly ascending
			sh.PCs = append(sh.PCs, pc)
		}
		for _, name := range names {
			stateLen := int(binary.LittleEndian.Uint16(append(take(2), 0, 0)))
			ps := PredState{
				Name:    name,
				Correct: uint64(byteAt()),
				Total:   uint64(byteAt()) + 1,
				State:   append([]byte(nil), take(stateLen)...),
			}
			sh.Preds = append(sh.Preds, ps)
		}
		s.Shards = append(s.Shards, sh)
	}
	return s
}

// trainedStateSeed builds fuzz input whose State blobs are genuine
// SaveState images of every pool predictor — including an order-8 FCM at
// a realistic table shape — laid out exactly as snapshotFromBytes
// consumes it, so the seed corpus starts from states the slab-backed
// LoadState accepts and the mutator works outward from there.
func trainedStateSeed(events int) []byte {
	rng := rand.New(rand.NewSource(99))
	preds := make([]core.Predictor, len(fuzzPredictorNames))
	for i, name := range fuzzPredictorNames {
		preds[i] = fuzzConstructors[name]()
	}
	for i := 0; i < events; i++ {
		pc := uint64(rng.Intn(12)) * 4
		var v uint64
		switch pc % 12 {
		case 0:
			v = uint64(i) * 8
		case 4:
			v = uint64(rng.Intn(3))
		default:
			v = []uint64{3, 1, 4, 7}[i%4]
		}
		for _, p := range preds {
			p.Update(pc, v)
		}
	}
	b := []byte{0 /* 1 shard */, byte(len(fuzzPredictorNames) - 1)}
	b = append(b, 1, 2, 3, 4) // created
	b = append(b, 9 /* events */, 2 /* npc */, 5, 7)
	for _, p := range preds {
		var st bytes.Buffer
		if err := p.SaveState(&st); err != nil {
			panic(err)
		}
		b = append(b, byte(st.Len()), byte(st.Len()>>8)) // 16-bit state length
		b = append(b, 1, 2)                              // correct, total
		b = append(b, st.Bytes()...)
	}
	return b
}

// unsortedFCMSeed builds fuzz input whose fcm3 blob is a valid FCM(3)
// state with one PC whose order-1 and order-2 contexts are listed in
// descending key order, which no save in creation order need produce:
// the mutator starts from a state that must re-save as loaded, one byte
// away from duplicate contexts.
func unsortedFCMSeed() []byte {
	u := binary.AppendUvarint
	ctx := func(b []byte, keys ...uint64) []byte {
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
		return u(u(u(u(b, 1), 0), 3), 1) // one value (3), best 0, count 1
	}
	st := u(u(u(u(nil, 3), 1), 1), 0x40)  // order 3, blend, one PC at 0x40
	st = u(u(u(u(u(st, 3), 1), 2), 3), 5) // history 1 2 3, 5 updates
	st = ctx(u(st, 1))                    // order 0
	st = ctx(ctx(u(st, 2), 2), 1)         // order 1: keys 2, 1
	st = ctx(ctx(u(st, 2), 2, 3), 1, 2)   // order 2: keys (2 3), (1 2)
	st = ctx(u(st, 1), 1, 2, 3)           // order 3
	p := core.NewFCM(3)
	var resaved bytes.Buffer
	if err := p.LoadState(bytes.NewReader(st)); err != nil {
		panic(err)
	}
	if err := p.SaveState(&resaved); err != nil || !bytes.Equal(resaved.Bytes(), st) {
		panic("the unsorted FCM seed does not re-save as loaded")
	}
	b := []byte{0 /* 1 shard */, 2 /* l, s2, fcm3 */, 1, 2, 3, 4, 9 /* events */, 0 /* npc */}
	b = append(b, 0, 0, 1, 2) // l: empty state, correct, total
	b = append(b, 0, 0, 1, 2) // s2: likewise
	b = append(b, byte(len(st)), byte(len(st)>>8), 1, 2)
	return append(b, st...)
}

// FuzzSnapshotRoundTrip: any structurally valid snapshot must encode,
// decode to an equal value, and re-encode byte-identically; every State
// blob the matching predictor's LoadState accepts must restore to a state
// whose save is a fixed point.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	// Genuine trained states — order-8 FCM included — at two table
	// shapes, so the slab-backed LoadState is fuzzed from realistic
	// corpora rather than only from garbage, plus a valid FCM state out
	// of key order.
	f.Add(trainedStateSeed(120))
	f.Add(trainedStateSeed(400))
	f.Add(unsortedFCMSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		in := snapshotFromBytes(data)
		var buf bytes.Buffer
		id, err := Encode(&buf, in)
		if err != nil {
			t.Fatalf("Encode of valid snapshot: %v", err)
		}
		out, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Decode of just-encoded snapshot: %v", err)
		}
		if out.Meta.ID != id || out.Meta.Events != in.Meta.Events {
			t.Fatalf("meta mismatch: %+v vs %+v", out.Meta, in.Meta)
		}
		for si := range out.Shards {
			for pi := range out.Shards[si].Preds {
				checkPredStateLoad(t, &out.Shards[si].Preds[pi])
			}
		}
		// nil-vs-empty blobs are indistinguishable on the wire.
		for si := range in.Shards {
			for pi := range in.Shards[si].Preds {
				if len(in.Shards[si].Preds[pi].State) == 0 {
					in.Shards[si].Preds[pi].State = nil
				}
				if len(out.Shards[si].Preds[pi].State) == 0 {
					out.Shards[si].Preds[pi].State = nil
				}
			}
		}
		if !reflect.DeepEqual(in.Shards, out.Shards) {
			t.Fatalf("shards differ:\n in  %+v\n out %+v", in.Shards, out.Shards)
		}
		var buf2 bytes.Buffer
		id2, err := Encode(&buf2, out)
		if err != nil {
			t.Fatal(err)
		}
		if id2 != id || !bytes.Equal(buf2.Bytes(), buf.Bytes()) {
			t.Fatal("re-encode not canonical")
		}
	})
}

// checkPredStateLoad pushes one State blob through the named predictor's
// LoadState. Rejection is fine (the blob is fuzz data); acceptance must
// never panic, and the restored predictor's own save must be a fixed
// point: saving, loading that save into a fresh instance and saving
// again reproduces the same bytes.
func checkPredStateLoad(t *testing.T, ps *PredState) {
	t.Helper()
	ctor, ok := fuzzConstructors[ps.Name]
	if !ok || len(ps.State) == 0 {
		return
	}
	p := ctor()
	if err := p.LoadState(bytes.NewReader(ps.State)); err != nil {
		return
	}
	var s1 bytes.Buffer
	if err := p.SaveState(&s1); err != nil {
		t.Fatalf("%s: save after accepted load: %v", ps.Name, err)
	}
	q := ctor()
	if err := q.LoadState(bytes.NewReader(s1.Bytes())); err != nil {
		t.Fatalf("%s: its own save rejected by LoadState: %v", ps.Name, err)
	}
	var s2 bytes.Buffer
	if err := q.SaveState(&s2); err != nil {
		t.Fatalf("%s: re-save: %v", ps.Name, err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatalf("%s: save/load/save is not a fixed point (%d vs %d bytes)",
			ps.Name, s1.Len(), s2.Len())
	}
}

// FuzzSnapshotDecodeRobustness: arbitrary bytes must never panic the
// decoder or make it allocate past the input it was handed.
func FuzzSnapshotDecodeRobustness(f *testing.F) {
	var valid bytes.Buffer
	s := snapshotFromBytes([]byte{2, 2, 1, 2, 3, 4, 9, 9, 9, 9, 9, 9, 9, 9})
	if _, err := Encode(&valid, s); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeBytes(data)
		if err == nil {
			// Anything accepted must re-encode cleanly (it passed CRC and
			// all structural checks, so it is a genuine snapshot image).
			if _, err := Encode(&bytes.Buffer{}, snap); err != nil {
				t.Fatalf("accepted snapshot fails re-encode: %v", err)
			}
		}
	})
}
