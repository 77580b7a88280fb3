package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/serve"
	"repro/internal/snapshot"
)

// The loops workload: periodic sequences in 16-PC loop bodies over 4096
// PCs. After the warm-up the tables are cache-resident and never grow;
// one connection keeps at most loopWindow 512-event requests
// outstanding, and every request fans out to every shard. Each round is
// a cold boot (set-up), the untimed warm-up, a timed closed loop and,
// after it, loopCuts full checkpoints of the small state. A run keeps
// loopRounds rounds (see runRounds).
const (
	loopReqEvents = 512
	loopWindow    = 4
	loopRounds    = 12
	loopCuts      = 3
	// loopDigestReqs is how many timed requests the printed digest covers
	// (the timed stream's length depends on speed, its prefix does not).
	loopDigestReqs = 1000
)

// loopRound is one cold-booted server's run.
type loopRound struct {
	phase
	setup        time.Duration
	decode, load time.Duration // traced rounds: read-back and restore of the last checkpoint
	stateMB      float64
	warm         *conn
	cuts         []cutInfo
	entriesDelta int // table entries inserted during the timed phase
}

func runLoops(e *env) error {
	g := newLoopGen(e.seed)
	warm := g.warmup()
	probe := make([]serve.Event, loopDigestReqs*loopReqEvents)
	g.fill(probe)
	note("input pcs=%d bodies=%d warmup=%d digest=%s (warm-up + first %d timed requests)",
		loopPCs, loopBodies, len(warm), digest(warm, probe), loopDigestReqs)

	steal := startSteal()
	rounds, attempted, err := runRounds(e, func(rounds []*loopRound) bool {
		return len(rounds) >= loopRounds
	}, func(r int, traced bool) (*loopRound, error) {
		return loopsRound(e, r, traced)
	})
	if err != nil {
		return err
	}
	note("steal over all rounds: %s", steal)
	for i, rd := range attempted {
		if rd.entriesDelta != 0 {
			note("warning: round %d inserted %d table entries in its timed phase", i, rd.entriesDelta)
		}
	}

	warmB, err := loopsGate(e, attempted)
	e.gate(err)

	phases := make([]*phase, len(rounds))
	var setups, cks, ckmb []float64
	for i, rd := range rounds {
		phases[i] = &rd.phase
		setups = append(setups, rd.setup.Seconds())
		for _, c := range rd.cuts {
			cks = append(cks, c.dur.Seconds())
			ckmb = append(ckmb, float64(c.size)/1e6)
		}
	}
	reportServe(e, phases)
	e.endToEndMetric("setup_s", median(setups), "s")
	note("checkpoint seconds %v", rounded(cks, 1000))
	e.endToEndMetric("ckpt_s", median(cks), "s")
	e.endToEndMetric("ckpt_mb", median(ckmb), "MB")
	if !e.traced {
		return nil
	}
	return loopsLayers(e, rounds, warmB)
}

// loopsGate checks every round's served tallies (warm-up plus timed
// requests) against a core.Bank replay of the same stream, bucketed by
// serve.ShardOf. It returns the replay's warm-up batches and the first
// mismatch.
func loopsGate(e *env, rounds []*loopRound) ([][]soa, error) {
	longest := 0
	for _, rd := range rounds {
		longest = max(longest, len(rd.conns[0].lat))
	}
	warm, cum := replayLoops(e.seed, e.nproc, longest)
	for i, rd := range rounds {
		_, w := rd.warm.sum(len(rd.warm.lat))
		n := len(rd.conns[0].lat)
		_, t := rd.conns[0].sum(n)
		for p := range t {
			t[p] += w[p]
		}
		if want := cum[n]; !slices.Equal(t, want) {
			return warm, fmt.Errorf("%w: round %d served tallies %v, core.Bank replay %v", errGate, i, t, want)
		}
	}
	note("gate bank parity: %d rounds match a core.Bank replay of warm-up + timed stream", len(rounds))
	return warm, nil
}

// loopsRound boots a cold server, warms it and runs one timed closed
// loop of seconds/loopRounds.
func loopsRound(e *env, r int, traced bool) (*loopRound, error) {
	rd := &loopRound{phase: phase{round: r, traced: traced}}
	dir := filepath.Join(e.outDir, fmt.Sprintf("round%d", r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// What is live now is the benchmark's own; heap_mb is the growth
	// over it.
	heap0 := liveHeapMB()
	steal := startSteal()
	sp := e.tr.begin("setup.cold_boot", 0, 0, 0)
	t0 := now()
	srv, err := serve.New(serveConfig(e, dir, false))
	if err == nil {
		err = srv.Start("127.0.0.1:0", "")
	}
	rd.setup = time.Duration(now() - t0)
	e.tr.end(sp)
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	// Untimed warm-up over its own connection, with the same window as
	// the timed phase so it leaves the server's high-water marks alone.
	g := newLoopGen(e.seed)
	warm := g.warmup()
	wk, err := dial(addr, 1, loopWindow, 0, nil, e.seed)
	if err != nil {
		return nil, err
	}
	wk.run(func([]serve.Event) []serve.Event {
		if len(warm) == 0 {
			return nil
		}
		n := min(loopReqEvents, len(warm))
		req := warm[:n]
		warm = warm[n:]
		return req
	})
	if err := wk.wait(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rd.warm = wk
	entries0 := tableEntries(srv)
	before := scrape(srv)

	k, err := dial(addr, 1, loopWindow, 0, rd.tracer(e), e.seed)
	if err != nil {
		return nil, err
	}
	rd.rt0 = readRT()
	phaseSp := e.tr.begin("timed.closed_loop", 0, 0, 0)
	start := now()
	deadline := start + int64(e.seconds/loopRounds*float64(time.Second))
	k.run(func(buf []serve.Event) []serve.Event {
		if now() >= deadline {
			return nil
		}
		if buf == nil {
			buf = make([]serve.Event, loopReqEvents)
		}
		g.fill(buf)
		return buf
	})
	err = k.wait()
	rd.elapsed = time.Duration(now() - start)
	e.tr.end(phaseSp)
	rd.rt1 = readRT()
	sent := len(k.stamps) + len(k.lat)
	e.attempted += int64(sent)
	e.failed += int64(sent - len(k.lat))
	if err != nil {
		return nil, err
	}
	rd.conns = []*conn{k}
	rd.events = len(k.lat) * loopReqEvents
	rd.entriesDelta = tableEntries(srv) - entries0
	rd.heapMB = liveHeapMB() - heap0

	// The checkpoints come after the timed phase: the request path never
	// meets them.
	for j := 0; j < loopCuts; j++ {
		csp := e.tr.begin("serve.write_checkpoint", 0, 0, 0)
		t := now()
		info, err := srv.WriteCheckpoint(dir)
		e.tr.end(csp)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		c := cutInfo{info: info, dur: time.Duration(now() - t)}
		if fi, err := os.Stat(info.Path); err == nil {
			c.size = fi.Size()
		}
		rd.cuts = append(rd.cuts, c)
	}
	rd.steal = steal.share()
	rd.stats = srv.Stats()
	rd.server = scrape(srv).since(before)
	if traced {
		if rd.decode, rd.load, rd.stateMB, err = restoreProbe(e, rd.cuts[len(rd.cuts)-1].info.Path); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// tableEntries sums the served predictors' table entries.
func tableEntries(srv *serve.Server) int {
	n := 0
	for _, p := range srv.Stats().Predictors {
		n += p.TableEntries
	}
	return n
}

// replayLoops regenerates the seed's warm-up and first n timed requests
// and replays them through per-shard core banks, bucketed by
// serve.ShardOf. It returns the bucketed batches and the cumulative
// tallies after the warm-up plus k timed requests, for k = 0..n.
func replayLoops(seed int64, shards, n int) (warm [][]soa, cum [][]uint64) {
	g := newLoopGen(seed)
	warm = make([][]soa, shards)
	wev := g.warmup()
	for off := 0; off < len(wev); off += loopReqEvents {
		bucket(warm, wev[off:min(off+loopReqEvents, len(wev))])
	}
	names := standardNames()
	banks, _ := warmedBanks(shards, warm)(names)
	total := func() []uint64 {
		out := make([]uint64, len(names))
		for _, b := range banks {
			for i, c := range b.Correct() {
				out[i] += c
			}
		}
		return out
	}
	cum = append(cum, total())
	req := make([]serve.Event, loopReqEvents)
	for k := 0; k < n; k++ {
		g.fill(req)
		parts := make([][]soa, shards)
		bucket(parts, req)
		for i, b := range banks {
			for _, sb := range parts[i] {
				b.StepBatch(sb.pcs, sb.vals)
			}
		}
		cum = append(cum, total())
	}
	return warm, cum
}

// loopsLayers runs the offline core and predstat replays over the traced
// round's batches: its timed requests, bucketed, after the warm-up.
func loopsLayers(e *env, rounds []*loopRound, warm [][]soa) error {
	var decodes, loads []float64
	n := 0
	for _, rd := range rounds {
		if rd.traced {
			decodes = append(decodes, ms(rd.decode))
			loads = append(loads, ms(rd.load))
			n = len(rd.conns[0].lat)
		}
	}
	e.layerMetric("snapshot.decode_ms", median(decodes), "ms")
	e.layerMetric("snapshot.load_ms", median(loads), "ms")
	e.layerMetric("snapshot.state_mb", rounds[len(rounds)-1].stateMB, "MB")
	g := newLoopGen(e.seed)
	g.warmup()
	batches := make([][]soa, e.nproc)
	req := make([]serve.Event, loopReqEvents)
	for k := 0; k < n; k++ {
		g.fill(req)
		bucket(batches, req)
	}
	return replayLayers(e, warmedBanks(e.nproc, warm), batches)
}

// restoreProbe times reading back a checkpoint and restoring it into a
// fresh (never started) server: the snapshot layer's decode and load on
// workloads whose set-up restores nothing.
func restoreProbe(e *env, path string) (decode, load time.Duration, stateMB float64, err error) {
	var snap *snapshot.Snapshot
	decode, err = e.tr.timed("snapshot.read_file", 0, func() (err error) {
		snap, err = snapshot.ReadFile(path)
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	srv, err := serve.New(serveConfig(e, "", false))
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()
	load, err = e.tr.timed("serve.restore", 0, func() error { return srv.Restore(snap) })
	return decode, load, float64(snap.StateBytes()) / 1e6, err
}
