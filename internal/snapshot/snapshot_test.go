package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sample builds a small two-shard snapshot with nontrivial content.
func sample() *Snapshot {
	return &Snapshot{
		Meta: Meta{
			CreatedUnixNano: 1_700_000_000_123_456_789,
			Predictors:      []string{"l", "s2", "fcm3"},
		},
		Shards: []ShardState{
			{
				Shard:  0,
				Events: 1000,
				PCs:    []uint64{0x400, 0x404, 0x90000},
				Preds: []PredState{
					{Name: "l", Correct: 400, Total: 1000, State: []byte{1, 2, 3}},
					{Name: "s2", Correct: 500, Total: 1000, State: []byte{}},
					{Name: "fcm3", Correct: 700, Total: 1000, State: bytes.Repeat([]byte{0xAB}, 300)},
				},
			},
			{
				Shard:  1,
				Events: 250,
				PCs:    nil,
				Preds: []PredState{
					{Name: "l", Correct: 1, Total: 250, State: []byte{9}},
					{Name: "s2", Correct: 2, Total: 250, State: []byte{0}},
					{Name: "fcm3", Correct: 3, Total: 250, State: nil},
				},
			},
		},
	}
}

func encodeOK(t *testing.T, s *Snapshot) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	id, err := Encode(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	return id, buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	id, data := encodeOK(t, s)
	if s.Meta.Events != 1250 || s.Meta.Shards != 2 || s.Meta.ID != id {
		t.Fatalf("Encode did not normalize meta: %+v", s.Meta)
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ID != id {
		t.Fatalf("decoded ID %s, want %s", got.Meta.ID, id)
	}
	if got.Meta.FormatVersion != FormatVersion || got.Meta.Events != 1250 {
		t.Fatalf("meta = %+v", got.Meta)
	}
	// Normalize nil-vs-empty before the deep compare: the wire format
	// cannot distinguish them and neither do consumers.
	want := sample()
	_, _ = Encode(&bytes.Buffer{}, want)
	for si := range want.Shards {
		for pi := range want.Shards[si].Preds {
			if len(want.Shards[si].Preds[pi].State) == 0 {
				want.Shards[si].Preds[pi].State = nil
			}
			if len(got.Shards[si].Preds[pi].State) == 0 {
				got.Shards[si].Preds[pi].State = nil
			}
		}
	}
	if !reflect.DeepEqual(got.Shards, want.Shards) {
		t.Fatalf("shards differ:\n got %+v\nwant %+v", got.Shards, want.Shards)
	}
	// Canonical: re-encoding the decoded snapshot is byte-identical.
	id2, data2 := encodeOK(t, got)
	if id2 != id || !bytes.Equal(data2, data) {
		t.Fatal("re-encode is not byte-identical")
	}
}

// TestEncodeSizesItsBuffer: Encode builds the file in one buffer sized
// up front, so a cut of N bytes allocates about N, not the several times
// N an append-grown buffer leaves behind.
func TestEncodeSizesItsBuffer(t *testing.T) {
	s := sample()
	s.Meta.ParentID, s.Meta.Depth = "0123456789abcdef", 3
	for i := range s.Shards[0].Preds {
		s.Shards[0].Preds[i].State = bytes.Repeat([]byte{byte(i)}, 300_000<<i)
	}
	_, data := encodeOK(t, s)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := Encode(io.Discard, s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(data))*9/8 {
		t.Fatalf("Encode allocated %d bytes for a %d-byte snapshot, want at most 9/8 of it", per, len(data))
	}
}

func TestEncodeRejectsMalformedInput(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"no shards":          func(s *Snapshot) { s.Shards = nil },
		"no predictors":      func(s *Snapshot) { s.Meta.Predictors = nil },
		"shard id gap":       func(s *Snapshot) { s.Shards[1].Shard = 2 },
		"pred count":         func(s *Snapshot) { s.Shards[0].Preds = s.Shards[0].Preds[:2] },
		"pred name mismatch": func(s *Snapshot) { s.Shards[1].Preds[0].Name = "zzz" },
		"unsorted pcs":       func(s *Snapshot) { s.Shards[0].PCs = []uint64{8, 4} },
		"duplicate pcs":      func(s *Snapshot) { s.Shards[0].PCs = []uint64{4, 4} },
		"empty pred name":    func(s *Snapshot) { s.Meta.Predictors[0] = "" },
	} {
		s := sample()
		mutate(s)
		if _, err := Encode(&bytes.Buffer{}, s); err == nil {
			t.Errorf("%s: Encode accepted", name)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	_, data := encodeOK(t, sample())

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[0] ^= 0x40
		if _, err := DecodeBytes(mut); err == nil || errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want a magic error", err)
		}
	})
	t.Run("flipped payload byte fails checksum", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(Magic)+3] ^= 0x01
		if _, err := DecodeBytes(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped trailer byte fails checksum", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(mut)-1] ^= 0x80
		if _, err := DecodeBytes(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeBytes(data[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeBytes(append(append([]byte(nil), data...), 0xEE)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
}

// rewrap recomputes the CRC trailer over a mutated payload, building an
// internally consistent file so structural validation (not the checksum)
// must catch the damage.
func rewrap(payload []byte) []byte {
	out := append([]byte(nil), Magic...)
	out = append(out, payload...)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc64.Checksum(payload, crcTable))
	return append(out, trailer[:]...)
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	_, data := encodeOK(t, sample())
	payload := append([]byte(nil), data[len(Magic):len(data)-8]...)
	if payload[0] != FormatVersion {
		t.Fatalf("version byte is %d, layout changed?", payload[0])
	}
	payload[0] = FormatVersion + 1
	if _, err := DecodeBytes(rewrap(payload)); err == nil ||
		!strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("got %v, want unsupported-version error", err)
	}
}

func TestDecodeRejectsTruncatedVarint(t *testing.T) {
	_, data := encodeOK(t, sample())
	payload := append([]byte(nil), data[len(Magic):len(data)-8]...)
	// Cut the payload mid-structure but keep a valid checksum: the error
	// must come from varint/structure parsing, proving decode does not
	// rely on the checksum alone to catch short input.
	short := payload[:len(payload)/2]
	if _, err := DecodeBytes(rewrap(short)); err == nil {
		t.Fatal("truncated payload with valid checksum accepted")
	}
	// A dangling continuation byte at the end of the payload.
	cont := append(append([]byte(nil), payload[:3]...), 0x80)
	if _, err := DecodeBytes(rewrap(cont)); err == nil {
		t.Fatal("dangling varint continuation accepted")
	}
}

func TestDecodeRejectsHostileCounts(t *testing.T) {
	// Claim 2^40 predictors in an otherwise tiny file: the count limit
	// must reject it without attempting the allocation.
	var payload []byte
	payload = binary.AppendUvarint(payload, FormatVersion)
	payload = binary.AppendUvarint(payload, 0)     // created
	payload = binary.AppendUvarint(payload, 0)     // events
	payload = binary.AppendUvarint(payload, 0)     // parent ID length
	payload = binary.AppendUvarint(payload, 0)     // depth
	payload = binary.AppendUvarint(payload, 1)     // shards
	payload = binary.AppendUvarint(payload, 1<<40) // predictors
	if _, err := DecodeBytes(rewrap(payload)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("absurd predictor count: got %v, want a count-limit error", err)
	}
	// Claim more PCs than the file has bytes left.
	payload = nil
	payload = binary.AppendUvarint(payload, FormatVersion)
	payload = binary.AppendUvarint(payload, 0) // created
	payload = binary.AppendUvarint(payload, 0) // events
	payload = binary.AppendUvarint(payload, 0) // parent ID length
	payload = binary.AppendUvarint(payload, 0) // depth
	payload = binary.AppendUvarint(payload, 1) // shards
	payload = binary.AppendUvarint(payload, 1) // predictors
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 'l')
	payload = binary.AppendUvarint(payload, 0)     // shard id
	payload = binary.AppendUvarint(payload, 0)     // shard events
	payload = binary.AppendUvarint(payload, 1<<30) // npcs far beyond payload size
	if _, err := DecodeBytes(rewrap(payload)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("PC count beyond payload size: got %v, want a count-limit error", err)
	}
}

func TestFileRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Latest(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Latest on empty dir = %v, want fs.ErrNotExist", err)
	}

	s1 := sample()
	p1, err := WriteFileAtomic(dir, s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := sample()
	s2.Shards[0].Events += 500
	s2.Shards[0].Preds[0].Correct += 123
	p2, err := WriteFileAtomic(dir, s2)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ID != s1.Meta.ID || got.Meta.Events != s1.Meta.Events {
		t.Fatalf("read back %+v, want %+v", got.Meta, s1.Meta)
	}

	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != p2 {
		t.Fatalf("Latest = %s, want %s", latest, p2)
	}

	// No temp files may survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".vpsnap-tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}

	// SweepTemp removes orphaned in-progress files and nothing else.
	stray := filepath.Join(dir, ".vpsnap-tmp-12345")
	if err := os.WriteFile(stray, []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	removed, err := SweepTemp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("SweepTemp removed %d files, want 1", removed)
	}
	if _, err := os.Stat(stray); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("stray temp file survived the sweep")
	}
	if _, err := os.Stat(p1); err != nil {
		t.Fatalf("sweep touched a finished snapshot: %v", err)
	}

	// A corrupted file on disk is rejected with its path in the error.
	raw, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	bad := filepath.Join(dir, "snap-99999999999999999999-corrupt.vpsnap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("corrupt file read = %v, want error naming %s", err, bad)
	}
}
