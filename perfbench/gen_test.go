package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// The generators are pure functions of the seed: equal seeds give equal
// streams (and digests), different seeds different ones.

func TestProgramsInputDeterministic(t *testing.T) {
	streams, err := programStreams(5000)
	if err != nil {
		t.Fatal(err)
	}
	a := digest(interleave(7, streams))
	again, err := programStreams(5000)
	if err != nil {
		t.Fatal(err)
	}
	if b := digest(interleave(7, again)); b != a {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if c := digest(interleave(8, streams)); c == a {
		t.Fatalf("seeds 7 and 8 gave the same digest %s", a)
	}
}

func TestInterleaveKeepsEachProgramInOrder(t *testing.T) {
	streams, err := programStreams(5000)
	if err != nil {
		t.Fatal(err)
	}
	all := interleave(3, streams)
	if len(all) != 7*5000 {
		t.Fatalf("interleaved %d events, want %d", len(all), 7*5000)
	}
	next := make([]int, len(streams))
	for _, ev := range all {
		p := int(ev.PC>>48) - 1
		if ev != streams[p][next[p]] {
			t.Fatalf("program %d event %d out of order", p, next[p])
		}
		next[p]++
	}
}

// Chunks drawn in proportion to what each program has left keep all
// seven live into the stream's last tenth at the workload's scale.
func TestInterleaveKeepsProgramsLive(t *testing.T) {
	streams := make([][]serve.Event, 7)
	for p := range streams {
		streams[p] = make([]serve.Event, 200_000)
		for i := range streams[p] {
			streams[p][i] = serve.Event{PC: programTag(p), Value: uint64(i)}
		}
	}
	all := interleave(1, streams)
	seen := map[uint64]bool{}
	for _, ev := range all[len(all)*9/10:] {
		seen[ev.PC] = true
	}
	if len(seen) != 7 {
		t.Fatalf("only %d programs live in the last tenth of the stream", len(seen))
	}
}

func TestLoopsInputDeterministic(t *testing.T) {
	gen := func(seed int64) string {
		g := newLoopGen(seed)
		w := g.warmup()
		timed := make([]serve.Event, 10*loopReqEvents)
		g.fill(timed)
		return digest(w, timed)
	}
	if a, b := gen(5), gen(5); a != b {
		t.Fatalf("same seed, digests %s and %s", a, b)
	}
	if a, b := gen(5), gen(6); a == b {
		t.Fatalf("seeds 5 and 6 gave the same digest %s", a)
	}
}

// Every seed draws the same class and period multiset, so seeds differ in
// layout, not in per-event cost.
func TestLoopsClassMixFixed(t *testing.T) {
	mix := func(seed int64) []int {
		var periods []int
		for _, p := range newLoopGen(seed).pcs {
			periods = append(periods, len(p.vals))
		}
		slices.Sort(periods)
		return periods
	}
	if !slices.Equal(mix(1), mix(2)) {
		t.Fatal("period multiset differs between seeds")
	}
}

// After the warm-up, the timed stream inserts no predictor table entries.
func TestLoopsWarmupCoversEveryContext(t *testing.T) {
	g := newLoopGen(9)
	bank := core.NewBank(core.NewLastValue(), core.NewStride2Delta(), core.NewFCM(1), core.NewFCM(2), core.NewFCM(3))
	step := func(evs []serve.Event) {
		b := toSOA(evs)
		bank.StepBatch(b.pcs, b.vals)
	}
	step(g.warmup())
	entries := func() int {
		n := 0
		for _, p := range bank.Predictors() {
			if s, ok := p.(core.Sized); ok {
				_, t := s.TableEntries()
				n += t
			}
		}
		return n
	}
	before := entries()
	timed := make([]serve.Event, 400*loopReqEvents)
	g.fill(timed)
	step(timed)
	if after := entries(); after != before {
		t.Fatalf("timed stream grew the tables from %d to %d entries", before, after)
	}
}

// The metric names the program reports are the ones BENCHMARK.json
// declares, and it runs every declared workload.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, perLayer)
	}
	for _, w := range names(spec.Workloads) {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one the program runs", w)
		}
	}
}
