package main

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// programEvents runs the compress workload for n value events.
func programEvents(t *testing.T, n int) []serve.Event {
	t.Helper()
	var evs []serve.Event
	_, err := bench.Compress().Run(bench.RunConfig{Opt: 2, MaxEvents: uint64(n), OnValues: func(vs []sim.ValueEvent) {
		for _, ev := range vs {
			evs = append(evs, serve.Event{PC: ev.PC, Value: ev.Value})
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestChainSummarizesLikeFull: a root with two deltas and a forced full
// cut of the same state load into the same predictors, so vpstate
// reports identical per-predictor aggregates and per-shard encoded sizes
// for both, and those sizes are the full cut's blob sizes.
func TestChainSummarizesLikeFull(t *testing.T) {
	evs := programEvents(t, 15_000)
	chainDir, fullDir := t.TempDir(), t.TempDir()
	s, err := serve.New(serve.Config{Shards: 2, DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var tip serve.CheckpointInfo
	for i := 0; i < 3; i++ {
		seg := evs[len(evs)*i/3 : len(evs)*(i+1)/3]
		if _, err := serve.DriveEvents(seg, serve.DriveConfig{Addr: s.Addr().String(), Clients: 2, BatchSize: 512}); err != nil {
			t.Fatal(err)
		}
		if tip, err = s.WriteCheckpoint(chainDir); err != nil {
			t.Fatal(err)
		}
	}
	// The full goes to a directory of its own: it would sweep the chain.
	full, err := s.WriteFullCheckpoint(fullDir)
	if err != nil {
		t.Fatal(err)
	}

	chainSum, err := summarize(tip.Path)
	if err != nil {
		t.Fatal(err)
	}
	fullSum, err := summarize(full.Path)
	if err != nil {
		t.Fatal(err)
	}
	if chainSum.chain.Depth != 2 || len(chainSum.chain.Files) != 3 || fullSum.chain.Depth != 0 {
		t.Fatalf("chain %+v and full %+v, want a depth-2 chain of 3 files and a root", chainSum.chain, fullSum.chain)
	}
	if chainSum.meta.Events != uint64(len(evs)) || fullSum.meta.Events != uint64(len(evs)) {
		t.Fatalf("events %d (chain) and %d (full), want %d", chainSum.meta.Events, fullSum.meta.Events, len(evs))
	}
	for _, a := range chainSum.aggs {
		if a.TableEntries == 0 || len(a.PerPC) == 0 || a.StateBytes == 0 {
			t.Fatalf("%s aggregated no state: %+v", a.Name, a)
		}
	}
	if !reflect.DeepEqual(chainSum.aggs, fullSum.aggs) {
		t.Error("per-predictor aggregates of the chain differ from the full cut's")
	}
	if !reflect.DeepEqual(chainSum.shards, fullSum.shards) {
		t.Errorf("per-shard summaries: chain %+v, full %+v", chainSum.shards, fullSum.shards)
	}
	root, err := snapshot.ReadFile(full.Path)
	if err != nil {
		t.Fatal(err)
	}
	for si, sh := range root.Shards {
		n := 0
		for _, ps := range sh.Preds {
			n += len(ps.State)
		}
		if got := fullSum.shards[si].StateBytes; got != n {
			t.Errorf("shard %d: %d encoded bytes reported, the full cut's blobs hold %d", si, got, n)
		}
	}
}
