package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// liveBank is a registry predictor bank sharded by PC that cuts real
// root and delta checkpoints the way a server's shards do: a root holds
// SaveState blobs, a delta SaveDelta blobs over the PCs stepped since the
// previous cut.
type liveBank struct {
	names  []string
	shards []*liveShard
	prev   *Snapshot // the last checkpoint cut; a delta names it as parent
}

type liveShard struct {
	bank   *core.Bank
	preds  []core.Predictor
	pcs    core.PCSet
	events uint64
}

func newLiveBank(t testing.TB, shards int, names ...string) *liveBank {
	lb := &liveBank{names: names}
	for range shards {
		sh := &liveShard{}
		for _, name := range names {
			f, ok := core.FactoryByName(name)
			if !ok {
				t.Fatalf("predictor %q not in registry", name)
			}
			sh.preds = append(sh.preds, f.New())
		}
		sh.bank = core.NewBank(sh.preds...)
		lb.shards = append(lb.shards, sh)
	}
	return lb
}

// step feeds each event to the shard owning its PC (pc/4 mod shards).
func (lb *liveBank) step(pcs, vals []uint64) {
	for i, pc := range pcs {
		sh := lb.shards[int(pc/4)%len(lb.shards)]
		sh.bank.StepBatch(pcs[i:i+1], vals[i:i+1])
		sh.pcs.Add(pc)
		sh.events++
	}
}

// cut writes a checkpoint into dir — a delta on the previous cut, or a
// root — and returns its path, the snapshot as written and every
// predictor's full SaveState blob at the cut ([shard][pred]).
func (lb *liveBank) cut(t testing.TB, dir string, delta bool) (string, *Snapshot, [][][]byte) {
	t.Helper()
	s := &Snapshot{Meta: Meta{CreatedUnixNano: 1_700_000_000_000_000_000, Predictors: lb.names}}
	if delta {
		s.Meta.ParentID, s.Meta.Depth = lb.prev.Meta.ID, lb.prev.Meta.Depth+1
	}
	if lb.prev != nil {
		s.Meta.CreatedUnixNano = lb.prev.Meta.CreatedUnixNano + 1
	}
	full := make([][][]byte, len(lb.shards))
	for si, sh := range lb.shards {
		st := ShardState{Shard: si, Events: sh.events, PCs: sh.pcs.AppendSorted(nil)}
		correct := sh.bank.Correct()
		for pi, p := range sh.preds {
			var blob, whole bytes.Buffer
			var err error
			if delta {
				_, err = p.SaveDelta(&blob)
			} else {
				err = p.SaveState(&blob)
			}
			if err == nil {
				err = p.SaveState(&whole)
			}
			if err != nil {
				t.Fatal(err)
			}
			st.Preds = append(st.Preds, PredState{Name: lb.names[pi], Correct: correct[pi], Total: sh.events, State: blob.Bytes()})
			full[si] = append(full[si], whole.Bytes())
		}
		s.Shards = append(s.Shards, st)
	}
	path, err := WriteFileAtomic(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	lb.prev = s
	return path, s, full
}

// chainTraffic is a deterministic event stream over a few dozen PCs with
// strides, constants, periodic and noisy values; seg picks a segment.
func chainTraffic(seg, n int) (pcs, vals []uint64) {
	for i := 0; i < n; i++ {
		pc := uint64((i*7+seg*13)%(24+4*seg)) * 4
		var v uint64
		switch pc % 16 {
		case 0:
			v = uint64(i+seg*n) * 8
		case 4:
			v = 42
		case 8:
			v = []uint64{3, 1, 4, 1, 5}[i%5]
		default:
			v = uint64(i*i+seg) % 11
		}
		pcs, vals = append(pcs, pc), append(vals, v)
	}
	return pcs, vals
}

// writeChain cuts a root and two deltas into dir, with traffic between
// the cuts; it returns each cut's path, snapshot and full blobs.
func writeChain(t *testing.T, dir string) (paths []string, snaps []*Snapshot, full [][][][]byte) {
	t.Helper()
	lb := newLiveBank(t, 2, "l", "s2", "fcm2")
	for cut := 0; cut < 3; cut++ {
		lb.step(chainTraffic(cut, 3000))
		path, s, f := lb.cut(t, dir, cut > 0)
		paths, snaps, full = append(paths, path), append(snaps, s), append(full, f)
	}
	return paths, snaps, full
}

// checkState fails unless got holds exactly want's tallies and events,
// and its loaded predictors save exactly the full blobs wantFull.
func checkState(t *testing.T, got *Loaded, want *Snapshot, wantFull [][][]byte) {
	t.Helper()
	if got.Meta.ID != want.Meta.ID || got.Meta.Events != want.Meta.Events || got.Meta.ParentID != "" {
		t.Fatalf("resolved meta %+v, want the state of %s", got.Meta, want.Meta.ID)
	}
	for si, sh := range got.Shards {
		w := want.Shards[si]
		if sh.Events != w.Events || !slices.Equal(sh.PCs, w.PCs) {
			t.Fatalf("shard %d events/PCs differ", si)
		}
		for pi, ps := range sh.Preds {
			if ps.Correct != w.Preds[pi].Correct || ps.Total != w.Preds[pi].Total {
				t.Fatalf("shard %d %s tallies %d/%d, want %d/%d", si, ps.Name,
					ps.Correct, ps.Total, w.Preds[pi].Correct, w.Preds[pi].Total)
			}
			var saved bytes.Buffer
			if err := got.Preds[si][pi].SaveState(&saved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), wantFull[si][pi]) {
				t.Fatalf("shard %d %s: loaded state saves %d bytes, differing from the live %d",
					si, ps.Name, saved.Len(), len(wantFull[si][pi]))
			}
		}
	}
}

// TestDeltaEncodeDecodeRoundTrip: a delta's parent and depth survive the
// container, and re-encoding a decoded delta is byte-identical.
func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	_, snaps, _ := writeChain(t, t.TempDir())
	d := snaps[2]
	var buf bytes.Buffer
	id, err := Encode(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ID != id || got.Meta.FormatVersion != FormatVersion ||
		got.Meta.ParentID != snaps[1].Meta.ID || got.Meta.Depth != 2 {
		t.Fatalf("meta = %+v", got.Meta)
	}
	if !reflect.DeepEqual(got.Shards, d.Shards) {
		t.Fatal("shards differ after the round trip")
	}
	var re bytes.Buffer
	if id2, err := Encode(&re, got); err != nil || id2 != id || !bytes.Equal(re.Bytes(), buf.Bytes()) {
		t.Fatalf("re-encode: id %s (want %s), err %v, identical %v", id2, id, err, bytes.Equal(re.Bytes(), buf.Bytes()))
	}
}

// TestDecodeReadsVersion1: a root written before checkpoints could name
// a parent (format version 1, no parent or depth field) still decodes,
// as a root with the same shards.
func TestDecodeReadsVersion1(t *testing.T) {
	s := sample()
	_, data := encodeOK(t, s)
	payload := data[len(Magic) : len(data)-8]
	// Version 2 is: version, created, events, parent "" (one zero byte),
	// depth 0 (one zero byte), then the version-1 tail.
	head := 1
	for range 2 {
		_, n := binary.Uvarint(payload[head:])
		head += n
	}
	if payload[0] != 2 || payload[head] != 0 || payload[head+1] != 0 {
		t.Fatalf("unexpected version-2 prefix % x", payload[:head+2])
	}
	v1 := append([]byte{1}, payload[1:head]...)
	v1 = append(v1, payload[head+2:]...)
	got, err := DecodeBytes(rewrap(v1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.FormatVersion != 1 || got.Meta.ParentID != "" || got.Meta.Depth != 0 ||
		got.Meta.Events != want.Meta.Events || !reflect.DeepEqual(got.Shards, want.Shards) {
		t.Fatalf("version-1 decode = %+v, want the shards of %+v", got.Meta, want.Meta)
	}
}

func TestDeltaEncodeRejectsMalformed(t *testing.T) {
	for name, mutate := range map[string]func(*Snapshot){
		"root with depth":   func(s *Snapshot) { s.Meta.Depth = 1 },
		"delta depth zero":  func(s *Snapshot) { s.Meta.ParentID = "abc" },
		"depth past bound":  func(s *Snapshot) { s.Meta.ParentID, s.Meta.Depth = "abc", maxChainDepth+1 },
		"negative depth":    func(s *Snapshot) { s.Meta.ParentID, s.Meta.Depth = "abc", -1 },
		"parent ID too big": func(s *Snapshot) { s.Meta.ParentID, s.Meta.Depth = strings.Repeat("a", maxNameLen+1), 1 },
	} {
		s := sample()
		mutate(s)
		if _, err := Encode(&bytes.Buffer{}, s); err == nil {
			t.Errorf("%s: Encode accepted", name)
		}
	}
}

func TestDeltaDecodeRejectsCorrupt(t *testing.T) {
	_, snaps, _ := writeChain(t, t.TempDir())
	var buf bytes.Buffer
	if _, err := Encode(&buf, snaps[1]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

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
	t.Run("delta without depth", func(t *testing.T) {
		var p []byte
		p = binary.AppendUvarint(p, FormatVersion)
		p = binary.AppendUvarint(p, 0) // created
		p = binary.AppendUvarint(p, 0) // events
		p = binary.AppendUvarint(p, 3)
		p = append(p, "abc"...)        // parent ID
		p = binary.AppendUvarint(p, 0) // depth
		if _, err := DecodeBytes(rewrap(p)); err == nil || !strings.Contains(err.Error(), "depth 0") {
			t.Fatalf("got %v, want a depth error", err)
		}
	})
}

// TestResolveChain: resolving each cut of a root + two-delta chain
// yields exactly the live state at that cut, through the registry.
func TestResolveChain(t *testing.T) {
	paths, snaps, full := writeChain(t, t.TempDir())
	for i, path := range paths {
		got, info, err := ResolveChain(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Depth != i || !slices.Equal(info.Files, paths[:i+1]) || len(info.Records) != i {
			t.Fatalf("cut %d: chain info = %+v", i, info)
		}
		for _, n := range info.Records {
			if n == 0 {
				t.Fatalf("cut %d: a delta carried no records: %v", i, info.Records)
			}
		}
		checkState(t, got, snaps[i], full[i])
	}
	// A root resolves to itself, read as is.
	root, _, err := ResolveChain(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(root.Shards, snaps[0].Shards) {
		t.Fatal("a root did not resolve to its own contents")
	}
}

func TestResolveChainRejectsBrokenChains(t *testing.T) {
	t.Run("missing parent file", func(t *testing.T) {
		paths, _, _ := writeChain(t, t.TempDir())
		if err := os.Remove(paths[1]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(paths[2]); err == nil ||
			!strings.Contains(err.Error(), "chain broken") {
			t.Fatalf("got %v, want chain-broken error", err)
		}
	})
	t.Run("corrupt delta record", func(t *testing.T) {
		// A delta blob that is not a valid delta, in a file whose CRC is
		// consistent: only applying the records can catch it.
		dir := t.TempDir()
		_, snaps, _ := writeChain(t, dir)
		bad := *snaps[2]
		bad.Meta.CreatedUnixNano++
		bad.Shards = slices.Clone(bad.Shards)
		bad.Shards[1].Preds = slices.Clone(bad.Shards[1].Preds)
		bad.Shards[1].Preds[2].State = []byte{2, 1, 1, 0x40}
		path, err := WriteFileAtomic(dir, &bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(path); err == nil || !strings.Contains(err.Error(), "fcm2") {
			t.Fatalf("got %v, want an fcm2 apply error", err)
		}
	})
	t.Run("flipped delta byte", func(t *testing.T) {
		paths, _, _ := writeChain(t, t.TempDir())
		flipByte(t, paths[2])
		if _, _, err := ResolveChain(paths[2]); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("reference crc mismatch", func(t *testing.T) {
		// The tip names its parent by the CRC-64 of the parent's payload.
		// Another valid checkpoint under the parent's file name passes its
		// own CRC, so only comparing it with the reference can catch it.
		paths, _, _ := writeChain(t, t.TempDir())
		other, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[1], other, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(paths[2]); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("changed predictor set", func(t *testing.T) {
		dir := t.TempDir()
		_, snaps, _ := writeChain(t, dir)
		bad := *snaps[2]
		bad.Meta.CreatedUnixNano++
		bad.Meta.Predictors = []string{"l", "s2", "fcm3"}
		bad.Shards = slices.Clone(bad.Shards)
		for si := range bad.Shards {
			bad.Shards[si].Preds = slices.Clone(bad.Shards[si].Preds)
			bad.Shards[si].Preds[2].Name = "fcm3"
		}
		path, err := WriteFileAtomic(dir, &bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(path); err == nil || !strings.Contains(err.Error(), "predictor set") {
			t.Fatalf("got %v, want a predictor-set error", err)
		}
	})
	t.Run("deleted predictor", func(t *testing.T) {
		// A chain written by a build whose bank still had lc: its records
		// cannot be applied here, so the chain is refused by that name.
		dir := t.TempDir()
		root := &Snapshot{
			Meta: Meta{CreatedUnixNano: 1, Predictors: []string{"l", "lc"}},
			Shards: []ShardState{{Preds: []PredState{
				{Name: "l", State: []byte{0}},
				{Name: "lc", State: []byte{0}},
			}}},
		}
		rootID, _ := encodeOK(t, root)
		if _, err := WriteFileAtomic(dir, root); err != nil {
			t.Fatal(err)
		}
		delta := *root
		delta.Meta.CreatedUnixNano, delta.Meta.ParentID, delta.Meta.Depth = 2, rootID, 1
		path, err := WriteFileAtomic(dir, &delta)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(path); err == nil || !strings.Contains(err.Error(), `"lc"`) {
			t.Fatalf(`got %v, want an error naming "lc"`, err)
		}
	})
	t.Run("depth gap", func(t *testing.T) {
		dir := t.TempDir()
		_, snaps, _ := writeChain(t, dir)
		bad := *snaps[2]
		bad.Meta.CreatedUnixNano++
		bad.Meta.Depth = 5
		path, err := WriteFileAtomic(dir, &bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResolveChain(path); err == nil ||
			!strings.Contains(err.Error(), "chain depth") {
			t.Fatalf("got %v, want depth error", err)
		}
	})
}

// flipByte corrupts one payload byte of the checkpoint file at path.
func flipByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResolveLatestFallsBack is the restore fallback: checkpoints are
// tried newest-first and the first whose chain resolves wins. A flipped
// byte in the newest delta restores its parent's state; a chain whose
// root is gone is skipped whole, down to the older chain.
func TestResolveLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := ResolveLatest(dir, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty dir: %v, want fs.ErrNotExist", err)
	}
	// An older chain (root, delta), then a newer one (root, two deltas).
	lb := newLiveBank(t, 2, "l", "fcm2")
	var paths []string
	var snaps []*Snapshot
	var full [][][][]byte
	for cut := 0; cut < 5; cut++ {
		lb.step(chainTraffic(cut, 2000))
		path, s, f := lb.cut(t, dir, cut != 0 && cut != 2)
		paths, snaps, full = append(paths, path), append(snaps, s), append(full, f)
	}
	var skipped []string
	skip := func(path string, err error) {
		if err == nil {
			t.Errorf("%s skipped with no error", path)
		}
		skipped = append(skipped, path)
	}
	got, _, err := ResolveLatest(dir, skip)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("intact dir: err %v, skipped %v", err, skipped)
	}
	checkState(t, got, snaps[4], full[4])

	flipByte(t, paths[4])
	got, chain, err := ResolveLatest(dir, skip)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(skipped, paths[4:5]) || chain.Depth != 1 {
		t.Fatalf("skipped %v (chain depth %d), want only the corrupt tip", skipped, chain.Depth)
	}
	checkState(t, got, snaps[3], full[3])

	skipped = nil
	if err := os.Remove(paths[2]); err != nil {
		t.Fatal(err)
	}
	got, _, err = ResolveLatest(dir, skip)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(skipped, []string{paths[4], paths[3]}) {
		t.Fatalf("skipped %v, want the newer chain's deltas", skipped)
	}
	checkState(t, got, snaps[1], full[1])

	flipByte(t, paths[0])
	skipped = nil
	if _, _, err := ResolveLatest(dir, skip); err == nil || len(skipped) != 4 {
		t.Fatalf("nothing resolves: err %v, skipped %v", err, skipped)
	}
}

// TestResolveLatestSkipsRootThatDoesNotLoad: a newer root whose blob
// passes its CRC but does not load is passed over like a corrupt delta,
// and the older root restores.
func TestResolveLatestSkipsRootThatDoesNotLoad(t *testing.T) {
	dir := t.TempDir()
	lb := newLiveBank(t, 2, "l", "fcm2")
	lb.step(chainTraffic(0, 2000))
	_, good, full := lb.cut(t, dir, false)
	bad := *good
	bad.Meta.CreatedUnixNano++
	bad.Shards = slices.Clone(bad.Shards)
	bad.Shards[1].Preds = slices.Clone(bad.Shards[1].Preds)
	fcm := &bad.Shards[1].Preds[1].State
	*fcm = (*fcm)[:len(*fcm)/2]
	badPath, err := WriteFileAtomic(dir, &bad)
	if err != nil {
		t.Fatal(err)
	}
	if latest, _ := Latest(dir); latest != badPath {
		t.Fatalf("Latest = %s, want the truncated root %s", latest, badPath)
	}
	var skipped []string
	got, chain, err := ResolveLatest(dir, func(path string, err error) {
		if err == nil || !strings.Contains(err.Error(), "fcm2") {
			t.Errorf("%s skipped with %v, want an fcm2 load error", path, err)
		}
		skipped = append(skipped, path)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(skipped, []string{badPath}) || chain.Depth != 0 {
		t.Fatalf("skipped %v (chain depth %d), want only the root that does not load", skipped, chain.Depth)
	}
	checkState(t, got, good, full)
}

// TestLoadRefusesDeltaAsRoot: a delta's blobs hold only what changed
// since its parent, so Load refuses a chain that starts with one, and the
// error points to ResolveChain.
func TestLoadRefusesDeltaAsRoot(t *testing.T) {
	_, snaps, _ := writeChain(t, t.TempDir())
	for _, chain := range [][]*Snapshot{snaps[1:2], snaps[1:]} {
		if _, _, err := Load(chain...); err == nil || !strings.Contains(err.Error(), "ResolveChain") {
			t.Fatalf("Load of %d checkpoints starting with a delta: got %v, want an error naming ResolveChain", len(chain), err)
		}
	}
}

func TestLatestAndSweepSuperseded(t *testing.T) {
	dir := t.TempDir()
	if _, err := Latest(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Latest on empty dir = %v, want fs.ErrNotExist", err)
	}
	paths, snaps, _ := writeChain(t, dir)
	// Latest orders roots and deltas alike by events, then time.
	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != paths[2] {
		t.Fatalf("Latest = %s, want %s", latest, paths[2])
	}
	found, err := FindByID(dir, snaps[1].Meta.ID)
	if err != nil || found != paths[1] {
		t.Fatalf("FindByID = %s, %v; want %s", found, err, paths[1])
	}
	if _, err := FindByID(dir, "ffffffffffffffff"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("FindByID unknown = %v, want fs.ErrNotExist", err)
	}

	// A new root at a higher event count supersedes everything before it.
	super := sample()
	super.Shards[0].Events = 1 << 20
	superPath, err := WriteFileAtomic(dir, super)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := SweepSuperseded(dir, superPath, super.Meta.Events)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("SweepSuperseded removed %d, want 3", removed)
	}
	for _, gone := range paths {
		if _, err := os.Stat(gone); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s survived the sweep", filepath.Base(gone))
		}
	}
	if _, err := os.Stat(superPath); err != nil {
		t.Fatalf("sweep removed the new root: %v", err)
	}
}
