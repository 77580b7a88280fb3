package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

func mustFactories(t *testing.T, spec string) []core.NamedFactory {
	t.Helper()
	facs, err := core.ParseFactories(spec)
	if err != nil {
		t.Fatal(err)
	}
	return facs
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// driveAll pushes evs through the server and returns per-predictor
// correct tallies for exactly that stream.
func driveAll(t *testing.T, s *Server, evs []Event, clients int) *DriveResult {
	t.Helper()
	res, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: clients, BatchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(len(evs)) {
		t.Fatalf("drove %d of %d events", res.Events, len(evs))
	}
	return res
}

// TestKillAndRestoreParity is the subsystem's acceptance test: serve a
// stream prefix, checkpoint, kill the server, restore a new one from the
// checkpoint file and serve the remainder — the remainder's predictions
// must be bit-identical to an uninterrupted run, at several shard
// counts. Verified three ways: per-predictor tallies against the
// uninterrupted server, against an offline WarmBank replay of the
// remainder, and by comparing the final drained state of both servers
// byte-for-byte.
func TestKillAndRestoreParity(t *testing.T) {
	evs, _ := capturedStream(t)
	cut := len(evs) * 2 / 3

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			finalDir := t.TempDir()

			// Uninterrupted reference run, final state checkpointed at exit.
			ref, err := New(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			full := driveAll(t, ref, evs, 2)
			refFinal, err := ref.Shutdown(finalDir)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: prefix, checkpoint, kill.
			a, err := New(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			prefix := driveAll(t, a, evs[:cut], 2)
			ck, err := a.WriteCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Events != uint64(cut) || ck.Shards != shards {
				t.Fatalf("checkpoint = %+v, want %d events over %d shards", ck, cut, shards)
			}
			if err := a.Close(); err != nil { // the "kill": no graceful checkpoint
				t.Fatal(err)
			}

			// Restart from the latest checkpoint in dir.
			latest, err := snapshot.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if latest != ck.Path {
				t.Fatalf("Latest = %s, want %s", latest, ck.Path)
			}
			snap, err := snapshot.ReadFile(latest)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err != nil {
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
				if got, want := prefix.Correct[i]+suffix.Correct[i], full.Correct[i]; got != want {
					t.Errorf("%s: interrupted %d correct, uninterrupted %d", name, got, want)
				}
			}

			// 2. The offline warm bank must reproduce the suffix exactly.
			warm, err := NewWarmBank(snap)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs[cut:] {
				warm.Step(ev.PC, ev.Value)
			}
			if !reflect.DeepEqual(warm.Correct(), suffix.Correct) {
				t.Errorf("warm bank replay %v, restored server %v", warm.Correct(), suffix.Correct)
			}

			// 3. The restored server's final drained state must be
			// byte-identical to the uninterrupted server's. It lands in
			// its own directory: a full checkpoint sweeps every older one
			// from the directory it is written to.
			bFinal, err := b.Shutdown(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			refSnap, err := snapshot.ReadFile(refFinal.Path)
			if err != nil {
				t.Fatal(err)
			}
			bSnap, err := snapshot.ReadFile(bFinal.Path)
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

// TestCheckpointUnderLiveTraffic races checkpoints against an active
// drive: every checkpoint must be internally consistent (its own shard
// events sum to its header) and the drive's tallies must stay exact.
func TestCheckpointUnderLiveTraffic(t *testing.T) {
	evs, _ := capturedStream(t)
	_, want := offlineReplay(t, "l,s2,fcm1,fcm2,fcm3", evs)
	dir := t.TempDir()
	s, err := New(Config{Shards: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan *DriveResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: 4, BatchSize: 256})
		errc <- err
		done <- res
	}()
	// Each checkpoint is read back as soon as it lands: the next one
	// supersedes it and sweeps its file.
	var infos []CheckpointInfo
	var snaps []*snapshot.Snapshot
	for i := 0; i < 8; i++ {
		info, err := s.WriteCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		infos, snaps = append(infos, info), append(snaps, snap)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	res := <-done
	for i, name := range res.Predictors {
		if res.Correct[i] != want[i] {
			t.Errorf("%s: drive tallied %d, offline replay %d (checkpointing perturbed serving)", name, res.Correct[i], want[i])
		}
	}
	// Every mid-stream checkpoint must decode cleanly and restore into a
	// working warm bank.
	for i, info := range infos {
		snap := snaps[i]
		if snap.Meta.Events != info.Events {
			t.Fatalf("checkpoint %s header %d events, info says %d", info.ID, snap.Meta.Events, info.Events)
		}
		if _, err := NewWarmBank(snap); err != nil {
			t.Fatalf("checkpoint %s does not restore: %v", info.ID, err)
		}
	}
	if files := checkpointFiles(t, dir); len(files) != 1 || files[0] != infos[len(infos)-1].Path {
		t.Fatalf("after %d full checkpoints the dir holds %v, want only the newest", len(infos), files)
	}
}

// TestWarmBankRefusesDeletedPredictor: a checkpoint whose bank names a
// predictor this build no longer has (lc, deleted from the registry)
// restores nothing, and the error names the predictor.
func TestWarmBankRefusesDeletedPredictor(t *testing.T) {
	var buf bytes.Buffer
	_, err := snapshot.Encode(&buf, &snapshot.Snapshot{
		Meta: snapshot.Meta{CreatedUnixNano: 1, Predictors: []string{"l", "lc"}},
		Shards: []snapshot.ShardState{{Preds: []snapshot.PredState{
			{Name: "l", State: []byte{0}},
			{Name: "lc", State: []byte{0}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWarmBank(snap); err == nil || !strings.Contains(err.Error(), `"lc"`) {
		t.Fatalf(`NewWarmBank of an l,lc checkpoint: got %v, want an error naming "lc"`, err)
	}
}

// TestRestoreValidation: a snapshot must only restore into a server with
// the identical shard layout and predictor bank.
func TestRestoreValidation(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	driveAll(t, s, evs[:5000], 1)
	ck, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap, err := snapshot.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}

	wrongShards, _ := New(Config{Shards: 3})
	if err := wrongShards.Restore(snap); err == nil {
		t.Fatal("restore into mismatched shard count accepted")
	}
	wrongBank, _ := New(Config{Shards: 2, Predictors: mustFactories(t, "l,s2")})
	if err := wrongBank.Restore(snap); err == nil {
		t.Fatal("restore into mismatched predictor bank accepted")
	}
	started := startTestServer(t, 2, "")
	if err := started.Restore(snap); err == nil {
		t.Fatal("restore into a started server accepted")
	}
}

// TestRestoreAllOrNothing: a snapshot whose shard 1 fcm3 state is
// truncated must fail to restore without touching any shard, even though
// shard 0's section is intact. After Start the server is cold: every
// shard reports 0 events and there is no restore provenance.
func TestRestoreAllOrNothing(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	driveAll(t, s, evs[:8000], 2)
	ck, err := s.WriteCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap, err := snapshot.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Shards[0].Events == 0 {
		t.Fatal("shard 0 captured no events; the test needs one to restore")
	}
	fi := slices.Index(snap.Meta.Predictors, "fcm3")
	if fi < 0 {
		t.Fatalf("no fcm3 in bank %v", snap.Meta.Predictors)
	}
	st := &snap.Shards[1].Preds[fi].State
	*st = (*st)[:len(*st)/2]

	r, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(snap); err == nil {
		t.Fatal("restore of a snapshot with a truncated shard succeeded")
	}
	if err := r.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if id := r.RestoredFrom(); id != "" {
		t.Errorf("failed restore left RestoredFrom = %q", id)
	}
	for _, sh := range r.Stats().PerShard {
		if sh.Events != 0 {
			t.Errorf("shard %d reports %d events after a failed restore, want 0", sh.Shard, sh.Events)
		}
	}
}

// TestStatsReportsRestoreProvenance: /stats must expose state size and,
// after a restore, the snapshot ID and restore timestamp, so a driver
// can tell warm-from-snapshot apart from warm-from-traffic.
func TestStatsReportsRestoreProvenance(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()
	s, err := New(Config{Shards: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	driveAll(t, s, evs[:8000], 1)

	cold := s.Stats()
	if cold.RestoredSnapshotID != "" || cold.RestoredAt != "" {
		t.Fatalf("cold server claims restore provenance: %+v", cold)
	}
	if cold.StartedAt == "" || cold.StateBytes.Used <= 0 || cold.StateBytes.Reserved < cold.StateBytes.Used {
		t.Fatalf("missing started_at or state size: %+v", cold)
	}
	for _, st := range cold.PerShard {
		if st.StateBytes.Used <= 0 || st.StateBytes.Reserved < st.StateBytes.Used {
			t.Fatalf("shard %d reports no resident state: %+v", st.Shard, st.StateBytes)
		}
	}

	// Trigger the checkpoint over HTTP.
	resp, err := http.Post("http://"+s.HTTPAddr().String()+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot = %d", resp.StatusCode)
	}
	var ck CheckpointInfo
	if err := jsonDecode(resp.Body, &ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ck.Events != 8000 {
		t.Fatalf("HTTP checkpoint captured %d events, want 8000", ck.Events)
	}
	s.Close()

	snap, err := snapshot.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	var restored []obs.StageEvent
	for _, ev := range r.EventRing().Events() {
		if ev.Kind == evRestore {
			restored = append(restored, ev)
		}
	}
	if len(restored) != 1 || restored[0].Detail != snap.Meta.ID || restored[0].N != 8000 || restored[0].DurNs <= 0 {
		t.Fatalf("restore ring events = %+v, want one for %s with 8000 events and its load duration", restored, snap.Meta.ID)
	}
	if err := r.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	warm := r.Stats()
	if warm.RestoredSnapshotID != snap.Meta.ID || warm.RestoredAt == "" {
		t.Fatalf("restored server stats missing provenance: %+v", warm)
	}
	if warm.Events != 8000 {
		t.Fatalf("restored server reports %d events, want 8000", warm.Events)
	}
}

// TestStatsRateCountsServedEventsOnly: a warm server's events_per_sec
// is a serving rate, so the events its restore loaded must not count.
// Restored from N events and then served M, /stats reports N+M events
// but a rate whose product with the uptime is M.
func TestStatsRateCountsServedEventsOnly(t *testing.T) {
	evs, _ := capturedStream(t)
	const restored, served = 6000, 4000
	a := startTestServer(t, 2, "")
	driveAll(t, a, evs[:restored], 1)
	info, err := a.Shutdown(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := b.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	driveAll(t, b, evs[restored:restored+served], 2)
	st := b.Stats()
	if st.Events != restored+served {
		t.Fatalf("stats events = %d, want %d", st.Events, restored+served)
	}
	if got := st.EventsPerSec * st.UptimeSec; math.Abs(got-served) > 1e-6*served {
		t.Fatalf("events_per_sec × uptime_sec = %.3f, want the %d served events", got, served)
	}
}

// TestHTTPSnapshotWithoutDir: the trigger must refuse cleanly when no
// checkpoint directory is configured.
func TestHTTPSnapshotWithoutDir(t *testing.T) {
	s := startTestServer(t, 1, "127.0.0.1:0")
	resp, err := http.Post("http://"+s.HTTPAddr().String()+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /snapshot without dir = %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}
