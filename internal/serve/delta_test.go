package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// checkpointFiles lists the checkpoint files in dir, oldest first.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	out, err := filepath.Glob(filepath.Join(dir, "*"+snapshot.Ext))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKillAndRestoreParityDeltaChain is the delta-checkpoint acceptance
// test: serve a stream in segments, cutting a full checkpoint then K
// deltas along the way, kill the server mid-chain, restore a new one by
// resolving full + deltas, and serve the remainder — the remainder's
// predictions must be bit-identical to an uninterrupted run, at several
// shard counts. Verified the same three ways as the v1 parity test:
// tallies, offline WarmBank replay, and final drained state bytes.
func TestKillAndRestoreParityDeltaChain(t *testing.T) {
	evs, _ := capturedStream(t)
	cut := len(evs) * 2 / 3
	const segs = 4 // one full + three deltas before the kill

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()

			// Uninterrupted reference run, final state checkpointed at exit.
			refFinalDir := t.TempDir()
			ref, err := New(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			full := driveAll(t, ref, evs, 2)
			refFinal, err := ref.Shutdown(refFinalDir)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted delta-mode run: drive in segments, checkpoint
			// after each, kill after the last.
			a, err := New(Config{Shards: shards, DeltaCheckpoints: true, FullEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			var prefixCorrect []uint64
			var infos []CheckpointInfo
			for si := 0; si < segs; si++ {
				lo, hi := cut*si/segs, cut*(si+1)/segs
				res := driveAll(t, a, evs[lo:hi], 2)
				if prefixCorrect == nil {
					prefixCorrect = make([]uint64, len(res.Correct))
				}
				for i, c := range res.Correct {
					prefixCorrect[i] += c
				}
				info, err := a.WriteCheckpoint(dir)
				if err != nil {
					t.Fatal(err)
				}
				infos = append(infos, info)
			}
			if infos[0].Kind != "full" || infos[0].Depth != 0 || infos[0].ParentID != "" {
				t.Fatalf("first checkpoint is not a chain root: %+v", infos[0])
			}
			for i := 1; i < segs; i++ {
				if infos[i].Kind != "delta" || infos[i].Depth != i || infos[i].ParentID != infos[i-1].ID {
					t.Fatalf("checkpoint %d does not extend the chain: %+v (parent %+v)", i, infos[i], infos[i-1])
				}
			}
			st := a.Stats()
			if st.Checkpoints.Full != 1 || st.Checkpoints.Deltas != segs-1 || st.Checkpoints.ChainDepth != segs-1 {
				t.Fatalf("stats checkpoint block = %+v", st.Checkpoints)
			}
			if err := a.Close(); err != nil { // the "kill": no graceful checkpoint
				t.Fatal(err)
			}

			// Restart from the newest checkpoint, resolving its chain.
			latest, err := snapshot.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if latest != infos[segs-1].Path {
				t.Fatalf("Latest = %s, want tip %s", latest, infos[segs-1].Path)
			}
			loaded, chain, err := snapshot.ResolveChain(latest)
			if err != nil {
				t.Fatal(err)
			}
			if chain.Depth != segs-1 || len(chain.Files) != segs {
				t.Fatalf("chain depth %d over %d files, want %d over %d", chain.Depth, len(chain.Files), segs-1, segs)
			}
			if loaded.Meta.Events != uint64(cut) {
				t.Fatalf("resolved chain carries %d events, want %d", loaded.Meta.Events, cut)
			}
			b, err := New(Config{Shards: shards, DeltaCheckpoints: true, FullEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreLoaded(loaded); err != nil {
				t.Fatal(err)
			}
			if err := b.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			suffix := driveAll(t, b, evs[cut:], 2)
			if suffix.ServerPriorEvents != uint64(cut) {
				t.Fatalf("restored server reported %d prior events, want %d", suffix.ServerPriorEvents, cut)
			}

			// 1. prefix + suffix must equal the uninterrupted tallies.
			for i, name := range full.Predictors {
				if got, want := prefixCorrect[i]+suffix.Correct[i], full.Correct[i]; got != want {
					t.Errorf("%s: interrupted %d correct, uninterrupted %d", name, got, want)
				}
			}

			// 2. The offline warm bank must reproduce the suffix exactly. It
			// loads its own copy of the chain: the server took over the
			// predictors of the first.
			warmLoaded, _, err := snapshot.ResolveChain(latest)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := WarmBankOf(warmLoaded)
			if err != nil {
				t.Fatal(err)
			}
			warm.StepBatch(evs[cut:])
			if !reflect.DeepEqual(warm.Correct(), suffix.Correct) {
				t.Errorf("warm bank replay %v, restored server %v", warm.Correct(), suffix.Correct)
			}

			// 3. The restored server's final drained state must be
			// byte-identical to the uninterrupted server's. Both finals go
			// through ResolveChain, which reads roots and deltas alike.
			bFinalDir := t.TempDir()
			bFinal, err := b.Shutdown(bFinalDir)
			if err != nil {
				t.Fatal(err)
			}
			refSnap, _, err := snapshot.ResolveChain(refFinal.Path)
			if err != nil {
				t.Fatal(err)
			}
			bSnap, _, err := snapshot.ResolveChain(bFinal.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refSnap.Shards, bSnap.Shards) {
				t.Error("final predictor state differs between interrupted and uninterrupted runs")
			}
			if refSnap.Meta.Events != bSnap.Meta.Events || bSnap.Meta.Events != uint64(len(evs)) {
				t.Errorf("final events %d vs %d, want %d", refSnap.Meta.Events, bSnap.Meta.Events, len(evs))
			}
		})
	}
}

// TestDeltaCheckpointCleanChunkSkip pins the mechanism the format exists
// for: after a full checkpoint, traffic touching a single PC must yield
// a delta that carries that PC's records and nothing else, skips every
// other entry as clean, resolves bit-identically to a forced full cut of
// the same state, and is swept (with its root) once that full lands.
func TestDeltaCheckpointCleanChunkSkip(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, DeltaCheckpoints: true, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	driveAll(t, s, evs, 2)
	fullInfo, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fullInfo.Kind != "full" {
		t.Fatalf("first checkpoint kind %q", fullInfo.Kind)
	}

	// Touch exactly one PC.
	hotPC := evs[0].PC
	hot := make([]Event, 0, 256)
	for _, ev := range evs {
		if ev.PC == hotPC {
			hot = append(hot, ev)
		}
		if len(hot) == 256 {
			break
		}
	}
	driveAll(t, s, hot, 1)
	deltaInfo, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if deltaInfo.Kind != "delta" || deltaInfo.ParentID != fullInfo.ID || deltaInfo.Depth != 1 {
		t.Fatalf("second checkpoint did not chain: %+v", deltaInfo)
	}
	if deltaInfo.ChunksWritten == 0 || deltaInfo.ChunksDeduped <= 100*deltaInfo.ChunksWritten {
		t.Fatalf("single-PC delta carried %d records and skipped %d", deltaInfo.ChunksWritten, deltaInfo.ChunksDeduped)
	}
	// Applied to empty predictors, each shard's delta blobs must hold the
	// hot PC on its owning shard and nothing at all elsewhere.
	delta, err := snapshot.ReadFile(deltaInfo.Path)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for si, sh := range delta.Shards {
		for _, ps := range sh.Preds {
			fac, _ := core.FactoryByName(ps.Name)
			p := fac.New()
			n, err := p.ApplyDelta(bytes.NewReader(ps.State))
			if err != nil {
				t.Fatalf("shard %d %s: %v", si, ps.Name, err)
			}
			records += n
			var want []uint64
			if ShardOf(hotPC, len(delta.Shards)) == si {
				want = []uint64{hotPC}
			}
			var got []uint64
			for pc := range p.PCEntries() {
				got = append(got, pc)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("shard %d %s delta carries PCs %#x, want %#x", si, ps.Name, got, want)
			}
		}
	}
	if records != deltaInfo.ChunksWritten {
		t.Fatalf("delta blobs hold %d records, the checkpoint reported %d", records, deltaInfo.ChunksWritten)
	}
	fullSize := fileSize(t, fullInfo.Path)
	deltaSize := fileSize(t, deltaInfo.Path)
	if deltaSize*10 >= fullSize {
		t.Fatalf("delta file %d bytes, full %d", deltaSize, fullSize)
	}

	// Resolve the chain now — the forced full below sweeps it away.
	chainLoaded, chain, err := snapshot.ResolveChain(deltaInfo.Path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Depth != 1 || len(chain.Files) != 2 || !slices.Equal(chain.Records, []int{records}) {
		t.Fatalf("chain = %+v", chain)
	}
	if files := checkpointFiles(t, dir); len(files) != 2 {
		t.Fatalf("a delta swept its chain: dir holds %v", files)
	}

	// A forced full of the identical state must materialize the exact
	// same bytes the chain resolves to.
	forced, err := s.WriteFullCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Kind != "full" || forced.Depth != 0 {
		t.Fatalf("forced checkpoint = %+v", forced)
	}
	forcedLoaded, _, err := snapshot.ResolveChain(forced.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(savedState(t, chainLoaded), savedState(t, forcedLoaded)) {
		t.Error("chain-resolved state differs from a forced full cut of the same state")
	}
	if chainLoaded.Meta.Events != forcedLoaded.Meta.Events {
		t.Errorf("events %d vs %d", chainLoaded.Meta.Events, forcedLoaded.Meta.Events)
	}

	// The full superseded the old chain: the sweep must leave only the
	// new root.
	files := checkpointFiles(t, dir)
	if len(files) != 1 || files[0] != forced.Path {
		t.Fatalf("after full, dir holds %v, want only %s", files, forced.Path)
	}
}

// TestFullCheckpointSweepsOlder pins the retention rule, which is the
// same in both modes: a durable full checkpoint sweeps every older
// checkpoint from its directory, so a full-only server keeps one file
// even when idle, and a delta chain survives until its next full.
func TestFullCheckpointSweepsOlder(t *testing.T) {
	evs, _ := capturedStream(t)
	for _, delta := range []bool{false, true} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Config{Shards: 2, DeltaCheckpoints: delta, CheckpointDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var infos []CheckpointInfo
			for i := 0; i < 3; i++ {
				driveAll(t, s, evs[i*1000:(i+1)*1000], 1)
				info, err := s.WriteCheckpoint(dir)
				if err != nil {
					t.Fatal(err)
				}
				infos = append(infos, info)
			}
			var want []string
			if delta {
				for _, info := range infos {
					want = append(want, info.Path)
				}
			} else {
				want = []string{infos[2].Path}
			}
			if files := checkpointFiles(t, dir); !slices.Equal(files, want) {
				t.Fatalf("after three cuts the dir holds %v, want %v", files, want)
			}
			// An idle full cut (no new events) still supersedes all.
			last, err := s.WriteFullCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if files := checkpointFiles(t, dir); !slices.Equal(files, []string{last.Path}) {
				t.Fatalf("after an idle full: dir holds %v, want only %s", files, last.Path)
			}
		})
	}
}

// TestFullEveryBoundsTheChain: with FullEvery 2 and traffic between
// cuts, the cut after two deltas roots a fresh chain, and that durable
// full sweeps the old chain from the directory.
func TestFullEveryBoundsTheChain(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, DeltaCheckpoints: true, FullEvery: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []struct {
		kind  string
		depth int
	}{{"full", 0}, {"delta", 1}, {"delta", 2}, {"full", 0}}
	var last CheckpointInfo
	for i, w := range want {
		driveAll(t, s, evs[i*1000:(i+1)*1000], 1)
		if last, err = s.WriteCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		if last.Kind != w.kind || last.Depth != w.depth {
			t.Fatalf("cut %d is %s at depth %d, want %s at depth %d", i, last.Kind, last.Depth, w.kind, w.depth)
		}
	}
	if files := checkpointFiles(t, dir); !slices.Equal(files, []string{last.Path}) {
		t.Fatalf("after the forced full the dir holds %v, want only %s", files, last.Path)
	}
}

// savedState returns a loaded checkpoint's shard sections with each
// predictor's blob replaced by the SaveState bytes of its loaded
// predictor: the state itself, whether it came from a root or a chain.
func savedState(t *testing.T, l *snapshot.Loaded) []snapshot.ShardState {
	t.Helper()
	out := slices.Clone(l.Shards)
	for si := range out {
		out[si].Preds = slices.Clone(out[si].Preds)
		for pi := range out[si].Preds {
			var buf bytes.Buffer
			if err := l.Preds[si][pi].SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			out[si].Preds[pi].State = buf.Bytes()
		}
	}
	return out
}

// writeDeltaChain serves part of the captured stream on a 2-shard
// delta-mode server, cutting a full checkpoint and then a delta into a
// fresh directory, and returns the delta's path.
func writeDeltaChain(t *testing.T) string {
	t.Helper()
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tip CheckpointInfo
	for i := 0; i < 2; i++ {
		driveAll(t, s, evs[i*5000:(i+1)*5000], 2)
		if tip, err = s.WriteCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
	}
	if tip.Kind != "delta" {
		t.Fatalf("second cut is %s, want a delta", tip.Kind)
	}
	return tip.Path
}

// TestRestoreEventCoversLoad: the restore ring event and log line carry
// the whole restore's duration, the load of the chain included, not only
// the install into the shards.
func TestRestoreEventCoversLoad(t *testing.T) {
	loaded, _, err := snapshot.ResolveChain(writeDeltaChain(t))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dur <= 0 {
		t.Fatalf("Load took %v", loaded.Dur)
	}
	r, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreLoaded(loaded); err != nil {
		t.Fatal(err)
	}
	var restored []obs.StageEvent
	for _, ev := range r.EventRing().Events() {
		if ev.Kind == evRestore {
			restored = append(restored, ev)
		}
	}
	if len(restored) != 1 || restored[0].DurNs < loaded.Dur.Nanoseconds() {
		t.Fatalf("restore ring events = %+v, want one lasting at least the load's %v", restored, loaded.Dur)
	}
}

// TestLoadedInstallsOnce: a loaded checkpoint's predictors go to one
// bank. Once a server or a warm bank has taken them, installing the same
// Loaded again fails, and the server it was offered to stays cold.
func TestLoadedInstallsOnce(t *testing.T) {
	tip := writeDeltaChain(t)
	for _, first := range []string{"server", "warm bank"} {
		loaded, _, err := snapshot.ResolveChain(tip)
		if err != nil {
			t.Fatal(err)
		}
		if first == "server" {
			a, err := New(Config{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = a.RestoreLoaded(loaded)
		} else {
			_, err = WarmBankOf(loaded)
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.RestoreLoaded(loaded); err == nil || b.RestoredFrom() != "" {
			t.Errorf("after a %s took the state, a second RestoreLoaded: got %v, restored from %q", first, err, b.RestoredFrom())
		}
		if _, err := WarmBankOf(loaded); err == nil {
			t.Errorf("after a %s took the state, WarmBankOf succeeded", first)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
