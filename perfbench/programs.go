package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// The programs workloads replay the seven bench programs' value streams,
// interleaved, over nproc pipelined connections while three checkpoints
// are cut. programs learns the history prefix and checkpoints it
// (untimed), then each round restarts from that checkpoint and replays
// the continuation with delta checkpoints. programs-cold boots each
// round empty and replays the history itself with full checkpoints, so
// every event grows the tables. Rounds run until the kept ones (see
// runRounds) add up to the run's seconds, within
// progMinRounds..progMaxRounds.
const (
	progPerProgram = 600_000   // events simulated per program
	progHistory    = 1_800_000 // interleaved prefix learned before the checkpoint
	progReqEvents  = 2048      // events per request
	progMinRounds  = 3
	progMaxRounds  = 18
)

// progCutFracs places the timed phase's three checkpoints (on a warm
// restart a full chain root, then two deltas): each is cut once the
// shards have applied this share of the round's events. The sender runs
// far ahead of the shards, so its own count would cut a nearly empty
// state.
var progCutFracs = []float64{0.25, 0.5, 0.75}

// cutInfo is one checkpoint taken during a timed phase.
type cutInfo struct {
	info serve.CheckpointInfo
	dur  time.Duration
	size int64
}

// progRun is what every round of a programs workload replays.
type progRun struct {
	prepPath string                // warm restarts: the checkpoint each round restores; "" boots cold
	base     []snapshot.ShardState // per-shard tallies a round starts from (zero when cold)
	stream   []serve.Event         // the replayed events, in stream order
	reqs     [][][]serve.Event     // the same, per connection, in requests
}

func (pr *progRun) warm() bool { return pr.prepPath != "" }

// newProgRun prepares the rounds. For a warm restart it learns the
// history and checkpoints it (untimed), and the rounds replay the
// continuation; cold rounds replay the history into empty tables.
func newProgRun(e *env, warm bool, hist, cont []serve.Event) (*progRun, error) {
	pr := &progRun{stream: hist}
	if warm {
		var err error
		pr.prepPath, err = learnHistory(e, filepath.Join(e.outDir, "prep"), hist)
		if err != nil {
			return nil, err
		}
		if pr.base, err = readTallies(pr.prepPath); err != nil {
			return nil, err
		}
		pr.stream = cont
	} else {
		pr.base = make([]snapshot.ShardState, e.nproc)
		for i := range pr.base {
			pr.base[i].Preds = make([]snapshot.PredState, len(standardNames()))
		}
	}
	pr.reqs = partition(pr.stream, e.nproc, progReqEvents)
	return pr, nil
}

// batches returns each connection's requests as the per-shard batches
// the server's banks step.
func (pr *progRun) batches() [][]soa {
	out := make([][]soa, len(pr.reqs))
	for i, l := range pr.reqs {
		for _, r := range l {
			out[i] = append(out[i], toSOA(r))
		}
	}
	return out
}

// checkParity replays the stream offline from the rounds' start state:
// through serve.NewWarmBank from the prep checkpoint, or through fresh
// core banks. Its tallies must equal the served ones.
func (pr *progRun) checkParity(served []uint64) error {
	if pr.warm() {
		return checkWarmParity(pr.prepPath, pr.stream, served)
	}
	return checkColdParity(pr.batches(), served)
}

// round is one set-up plus one replay.
type round struct {
	phase
	setup, decode, load time.Duration
	stateMB             float64
	cuts                []cutInfo
}

func runPrograms(e *env) error     { return runProgramStreams(e, true) }
func runProgramsCold(e *env) error { return runProgramStreams(e, false) }

func runProgramStreams(e *env, warm bool) error {
	streams, err := programStreams(progPerProgram)
	if err != nil {
		return err
	}
	all := interleave(e.seed, streams)
	hist, cont := all[:progHistory], all[progHistory:]
	note("input programs=%d per_program=%d history=%d continuation=%d digest=%s",
		len(bench.Registry()), progPerProgram, len(hist), len(cont), digest(hist, cont))
	if e.traced {
		if err := probeMinicSim(e, progPerProgram); err != nil {
			return err
		}
	}

	pr, err := newProgRun(e, warm, hist, cont)
	if err != nil {
		return err
	}

	// Odd attempts of a traced run are traced; even ones measure the same
	// replay untraced, for the tracing overhead.
	steal := startSteal()
	rounds, attempted, err := runRounds(e, func(rounds []*round) bool {
		var timed time.Duration
		for _, rd := range rounds {
			timed += rd.elapsed
		}
		return len(rounds) >= progMinRounds && (timed.Seconds() >= e.seconds || len(rounds) >= progMaxRounds)
	}, func(r int, traced bool) (*round, error) {
		return programsRound(e, r, pr, traced)
	})
	if err != nil {
		return err
	}
	note("steal over all rounds: %s", steal)

	// Served tallies must be identical every round and equal an offline
	// replay of the same stream from the same start state.
	want := roundTotals(attempted[0])
	for i, rd := range attempted[1:] {
		if got := roundTotals(rd); !slices.Equal(got, want) {
			e.gate(fmt.Errorf("%w: round %d tallies %v differ from round 0 %v", errGate, i+1, got, want))
		}
	}
	e.gate(pr.checkParity(want))

	phases := make([]*phase, len(rounds))
	for i, rd := range rounds {
		phases[i] = &rd.phase
	}
	reportServe(e, phases)
	var setups, decodes, loads, states, cks, ckmb []float64
	for _, rd := range rounds {
		setups = append(setups, rd.setup.Seconds())
		if warm || rd.traced { // a cold round reads a cut back only when traced
			decodes = append(decodes, ms(rd.decode))
			loads = append(loads, ms(rd.load))
			states = append(states, rd.stateMB)
		}
		for _, c := range rd.cuts {
			cks = append(cks, c.dur.Seconds())
			ckmb = append(ckmb, float64(c.size)/1e6)
		}
	}
	e.endToEndMetric("setup_s", median(setups), "s")
	note("checkpoint seconds %v", rounded(cks, 1000))
	e.endToEndMetric("ckpt_s", median(cks), "s")
	e.endToEndMetric("ckpt_mb", median(ckmb), "MB")
	note("checkpoints per round=%d sizes_mb=%v", len(progCutFracs), rounded(ckmb, 10))
	if e.traced {
		e.layerMetric("snapshot.decode_ms", median(decodes), "ms")
		e.layerMetric("snapshot.load_ms", median(loads), "ms")
		e.layerMetric("snapshot.state_mb", median(states), "MB")
		mk := warmedBanks(e.nproc, make([][]soa, e.nproc))
		if warm {
			snap, err := snapshot.ReadFile(pr.prepPath)
			if err != nil {
				return err
			}
			mk = restoredBanks(snap)
		}
		return replayLayers(e, mk, pr.batches())
	}
	return nil
}

// partition splits events across n connections by serve.ShardOf, so
// connection i carries exactly shard i's events in stream order, and
// cuts each connection's share into requests of at most size events.
func partition(evs []serve.Event, n, size int) [][][]serve.Event {
	per := make([][]serve.Event, n)
	for _, ev := range evs {
		i := serve.ShardOf(ev.PC, n)
		per[i] = append(per[i], ev)
	}
	out := make([][][]serve.Event, n)
	for i, s := range per {
		for off := 0; off < len(s); off += size {
			out[i] = append(out[i], s[off:min(off+size, len(s))])
		}
	}
	return out
}

// serveConfig is the default server configuration at nproc shards.
func serveConfig(e *env, dir string, delta bool) serve.Config {
	return serve.Config{Shards: e.nproc, CheckpointDir: dir, DeltaCheckpoints: delta}
}

// learnHistory boots a cold server, replays the history prefix into it
// and writes the full checkpoint the timed rounds restart from.
func learnHistory(e *env, dir string, hist []serve.Event) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	srv, err := serve.New(serveConfig(e, dir, false))
	if err != nil {
		return "", err
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0", ""); err != nil {
		return "", err
	}
	reqs := partition(hist, e.nproc, progReqEvents)
	conns, err := replay(e, srv.Addr().String(), reqs, nil)
	if err != nil {
		return "", err
	}
	for _, k := range conns {
		if err := k.wait(); err != nil {
			return "", err
		}
	}
	info, err := srv.WriteCheckpoint(dir)
	if err != nil {
		return "", err
	}
	note("prep checkpoint events=%d path=%s", info.Events, filepath.Base(info.Path))
	return info.Path, nil
}

// appliedEvents returns a reader of the events the server's shards have
// applied, from their vp_shard_events_total counters.
func appliedEvents(srv *serve.Server, shards int) func() uint64 {
	var ctrs []*obs.Counter
	for i := 0; i < shards; i++ {
		ctrs = append(ctrs, srv.MetricsRegistry().Counter("vp_shard_events_total", "", "shard", strconv.Itoa(i)))
	}
	return func() uint64 {
		var n uint64
		for _, c := range ctrs {
			n += c.Load()
		}
		return n
	}
}

// replay starts one pipelined connection per request list, traced when
// tr is non-nil.
func replay(e *env, addr string, reqs [][][]serve.Event, tr *tracer) ([]*conn, error) {
	conns := make([]*conn, len(reqs))
	for i := range reqs {
		k, err := dial(addr, i+1, 0, len(reqs[i]), tr, e.seed)
		if err != nil {
			for _, prev := range conns[:i] {
				prev.c.Close()
			}
			return nil, err
		}
		conns[i] = k
	}
	for i, k := range conns {
		list := reqs[i]
		next := 0
		k.run(func([]serve.Event) []serve.Event {
			if next == len(list) {
				return nil
			}
			next++
			return list[next-1]
		})
	}
	return conns, nil
}

// readTallies reads a checkpoint and keeps only each shard's event count
// and per-predictor tallies, not its state.
func readTallies(path string) ([]snapshot.ShardState, error) {
	snap, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]snapshot.ShardState, len(snap.Shards))
	for i, sh := range snap.Shards {
		out[i] = snapshot.ShardState{Shard: sh.Shard, Events: sh.Events}
		for _, p := range sh.Preds {
			out[i].Preds = append(out[i].Preds, snapshot.PredState{Name: p.Name, Correct: p.Correct, Total: p.Total})
		}
	}
	return out, nil
}

// programsRound sets up a server — a warm restart from the prep
// checkpoint, or a cold boot — and replays the requests while cutting
// the three checkpoints (timed).
func programsRound(e *env, r int, pr *progRun, traced bool) (*round, error) {
	rd := &round{phase: phase{round: r, traced: traced}}
	dir := filepath.Join(e.outDir, fmt.Sprintf("round%d", r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// A restarting server starts from a fresh heap; collect the previous
	// round's garbage outside the timed set-up. What is live now is the
	// benchmark's own (inputs, earlier rounds' samples); heap_mb is the
	// growth over it.
	heap0 := liveHeapMB()
	steal := startSteal()
	name := "setup.cold_boot"
	if pr.warm() {
		name = "setup.warm_restart"
	}
	setup := e.tr.begin(name, 0, 0, 0)
	t0 := now()
	var snap *snapshot.Snapshot
	var srv *serve.Server
	var err error
	if pr.warm() {
		rd.decode, err = e.tr.timed("snapshot.read_file", setup.ID, func() (err error) {
			snap, err = snapshot.ReadFile(pr.prepPath)
			return err
		})
	}
	if err == nil {
		_, err = e.tr.timed("serve.new", setup.ID, func() (err error) {
			srv, err = serve.New(serveConfig(e, dir, pr.warm()))
			return err
		})
	}
	if err == nil && pr.warm() {
		rd.load, err = e.tr.timed("serve.restore", setup.ID, func() error { return srv.Restore(snap) })
	}
	if err == nil {
		_, err = e.tr.timed("serve.start", setup.ID, func() error { return srv.Start("127.0.0.1:0", "") })
	}
	rd.setup = time.Duration(now() - t0)
	e.tr.end(setup)
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return nil, err
	}
	defer srv.Close()
	if pr.warm() {
		rd.stateMB = float64(snap.StateBytes()) / 1e6
		snap = nil // the server holds its own copy of the state
	}
	reqs := pr.reqs

	total := 0
	for _, l := range reqs {
		for _, req := range l {
			total += len(req)
		}
	}
	applied := appliedEvents(srv, e.nproc)
	applied0 := applied()
	abort := make(chan struct{})
	var cutErr error
	var cutWG sync.WaitGroup

	rd.rt0 = readRT()
	phaseSp := e.tr.begin("timed.replay", 0, 0, 0)
	start := now()
	conns, err := replay(e, srv.Addr().String(), reqs, rd.tracer(e))
	if err != nil {
		return nil, err
	}
	cutWG.Add(1)
	go func() {
		defer cutWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for j, f := range progCutFracs {
			for applied()-applied0 < uint64(f*float64(total)) {
				select {
				case <-tick.C:
				case <-abort:
					return
				}
			}
			sp := e.tr.begin("serve.write_checkpoint", 0, phaseSp.ID, 0)
			t := now()
			var info serve.CheckpointInfo
			var err error
			if j == 0 && pr.warm() {
				info, err = srv.WriteFullCheckpoint(dir)
			} else {
				info, err = srv.WriteCheckpoint(dir)
			}
			e.tr.end(sp)
			if err != nil {
				cutErr = err
				return
			}
			c := cutInfo{info: info, dur: time.Duration(now() - t)}
			if fi, err := os.Stat(info.Path); err == nil {
				c.size = fi.Size()
			}
			rd.cuts = append(rd.cuts, c)
		}
	}()
	var connErr error
	for _, k := range conns {
		if err := k.wait(); err != nil && connErr == nil {
			connErr = err
		}
	}
	// A shard counts a sub-batch before it completes the request, so with
	// every result back every cut's target has been met. A cut still
	// waiting means the counters stopped; it gives up, and the chain gate
	// reports the missing checkpoint.
	close(abort)
	cutWG.Wait()
	rd.elapsed = time.Duration(now() - start)
	e.tr.end(phaseSp)
	rd.rt1 = readRT()
	rd.steal = steal.share()
	rd.conns = conns
	rd.events = total
	for _, l := range reqs {
		e.attempted += int64(len(l))
	}
	for i, k := range conns {
		e.failed += int64(len(reqs[i]) - len(k.lat))
	}
	if connErr != nil {
		return nil, connErr
	}
	if cutErr != nil {
		return nil, fmt.Errorf("checkpoint: %w", cutErr)
	}
	rd.heapMB = liveHeapMB() - heap0
	rd.stats = srv.Stats()
	rd.server = scrape(srv)
	e.gate(checkChain(rd, pr))
	if traced && !pr.warm() && len(rd.cuts) > 0 {
		// A cold round restores nothing; read back and restore its last
		// cut instead, for the snapshot layer's figures.
		last := rd.cuts[len(rd.cuts)-1].info.Path
		if rd.decode, rd.load, rd.stateMB, err = restoreProbe(e, last); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// roundTotals sums a round's served per-predictor tallies.
func roundTotals(rd *round) []uint64 {
	var out []uint64
	for _, k := range rd.conns {
		_, c := k.sum(len(k.lat))
		if out == nil {
			out = make([]uint64, len(c))
		}
		for i, v := range c {
			out[i] += v
		}
	}
	return out
}

// checkChain resolves the round's last checkpoint back through its delta
// chain and checks the chain shape (full, delta, delta on a warm
// restart; three fulls when cold) and that every shard's tallies equal
// its starting tallies plus the results of exactly the requests the
// request-atomic cut included.
func checkChain(rd *round, pr *progRun) error {
	if len(rd.cuts) != len(progCutFracs) {
		return fmt.Errorf("%w: %d checkpoints written, want %d", errGate, len(rd.cuts), len(progCutFracs))
	}
	depth := 0
	if pr.warm() {
		depth = len(progCutFracs) - 1
	}
	for j, c := range rd.cuts {
		want := "full"
		if pr.warm() && j > 0 {
			want = "delta"
		}
		if c.info.Kind != want {
			return fmt.Errorf("%w: checkpoint %d is %s, want %s", errGate, j, c.info.Kind, want)
		}
	}
	res, chain, err := snapshot.ResolveChain(rd.cuts[len(rd.cuts)-1].info.Path)
	if err != nil {
		return fmt.Errorf("%w: resolving chain: %v", errGate, err)
	}
	if chain.Depth != depth {
		return fmt.Errorf("%w: chain depth %d, want %d", errGate, chain.Depth, depth)
	}
	for i, k := range rd.conns {
		got, base := res.Shards[i], pr.base[i]
		included := got.Events - base.Events
		n, ev := 0, uint64(0)
		for n < len(k.events) && ev < included {
			ev += k.events[n]
			n++
		}
		if ev != included {
			return fmt.Errorf("%w: shard %d cut holds %d replayed events, not a whole number of requests", errGate, i, included)
		}
		_, served := k.sum(n)
		for p := range served {
			if want := base.Preds[p].Correct + served[p]; got.Preds[p].Correct != want {
				return fmt.Errorf("%w: shard %d %s: chain tally %d, want start+served %d",
					errGate, i, got.Preds[p].Name, got.Preds[p].Correct, want)
			}
		}
	}
	return nil
}

// checkWarmParity replays the continuation offline through
// serve.NewWarmBank from the prep checkpoint; its tallies must equal the
// served ones.
func checkWarmParity(prepPath string, cont []serve.Event, served []uint64) error {
	liveHeapMB()
	snap, err := snapshot.ReadFile(prepPath)
	if err != nil {
		return err
	}
	wb, err := serve.NewWarmBank(snap)
	if err != nil {
		return err
	}
	wb.StepBatch(cont)
	if got := wb.Correct(); !slices.Equal(got, served) {
		return fmt.Errorf("%w: served tallies %v, warm replay %v", errGate, served, got)
	}
	note("gate warm-restart parity: served tallies equal NewWarmBank replay %v", served)
	return nil
}

// checkColdParity replays every connection's requests offline through a
// fresh core.Bank for its shard; the tallies must equal the served ones.
func checkColdParity(batches [][]soa, served []uint64) error {
	liveHeapMB()
	banks, err := warmedBanks(len(batches), batches)(standardNames())
	if err != nil {
		return err
	}
	got := make([]uint64, len(served))
	for _, b := range banks {
		for p, c := range b.Correct() {
			got[p] += c
		}
	}
	if !slices.Equal(got, served) {
		return fmt.Errorf("%w: served tallies %v, cold core.Bank replay %v", errGate, served, got)
	}
	note("gate cold parity: served tallies equal a cold core.Bank replay %v", served)
	return nil
}

// probeMinicSim times compiling the seven programs, and simulating each
// for budget events with an empty consumer.
func probeMinicSim(e *env, budget uint64) error {
	ws := bench.Registry()
	d, err := e.tr.timed("minic.compile", 0, func() error {
		for _, w := range ws {
			if _, err := w.Compile(bench.RefOpt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layerMetric("minic.compile_ms", ms(d), "ms")
	var events uint64
	d, err = e.tr.timed("sim.run_stream", 0, func() error {
		for _, w := range ws {
			n, err := engine.RunStream(engine.StreamConfig{
				Benchmark: w.Name, Opt: bench.RefOpt, Events: budget,
			}, func(_, _ []uint64) {})
			if err != nil {
				return err
			}
			events += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layerMetric("sim.ns_per_event", float64(d)/float64(events), "ns")
	return nil
}
