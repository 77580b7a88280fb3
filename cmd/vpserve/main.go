// Command vpserve runs the online value-prediction service: predictor
// state sharded by hash(pc), each shard a single goroutine with a bounded
// mailbox, serving a length-prefixed binary protocol over TCP plus JSON
// introspection over HTTP.
//
// Usage:
//
//	vpserve -addr :9747 -http :9748 -shards 8 -pred l,s2,fcm1,fcm2,fcm3
//
// With a checkpoint directory the server becomes durable: it writes
// periodic snapshots of every predictor table, a final one on graceful
// shutdown (SIGTERM/SIGINT), and can warm-restart from one so a restarted
// server predicts bit-identically to one that never stopped:
//
//	vpserve -checkpoint-dir /var/lib/vpserve -checkpoint-interval 30s
//	vpserve -checkpoint-dir /var/lib/vpserve -restore /var/lib/vpserve
//
// Every durable full checkpoint sweeps the older checkpoints from the
// directory. With -checkpoint-delta checkpoints become incremental: each
// cut after a full one is a delta holding only the records changed since
// the previous cut (the histories of the PCs stepped since, and the FCM
// contexts whose counts changed), and every -checkpoint-full-every deltas
// a full checkpoint roots a fresh chain:
//
//	vpserve -checkpoint-dir /var/lib/vpserve -checkpoint-interval 30s \
//	        -checkpoint-delta -checkpoint-full-every 8
//
// -restore accepts a checkpoint file or a directory. From a directory
// the newest checkpoint whose chain resolves and loads wins: one that
// fails (a corrupt file, a missing parent, a blob that does not load) is
// logged and skipped for the next older one, and the server exits only
// when none resolves.
// Delta chains are resolved back through their parents automatically.
// Unless overridden, the shard count and predictor bank are taken from
// the snapshot. POST /snapshot on the HTTP endpoint triggers an
// immediate checkpoint (?full=1 forces a full cut). Drive it with the
// load generator:
//
//	vptrace capture -bench gcc -events 1000000 -o gcc.vpt
//	vptrace drive -addr localhost:9747 -clients 8 gcc.vpt
//
// and watch live accuracy at http://localhost:9748/stats.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

func main() {
	addr := flag.String("addr", ":9747", "binary-protocol listen address")
	httpAddr := flag.String("http", ":9748", "HTTP /stats + /healthz + /metrics + /events + /trace + /predictability + /snapshot + pprof listen address (empty = disabled)")
	shards := flag.Int("shards", 0, "predictor-state shards (0 = GOMAXPROCS, or the snapshot's layout with -restore)")
	preds := flag.String("pred", "l,s2,fcm1,fcm2,fcm3", "comma-separated predictor bank")
	mailbox := flag.Int("mailbox", 0, "per-shard mailbox depth (0 = default)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for predictor-state snapshots (enables checkpointing)")
	ckptEvery := flag.Duration("checkpoint-interval", 0, "write a checkpoint this often (0 = only on shutdown/trigger; needs -checkpoint-dir)")
	ckptDelta := flag.Bool("checkpoint-delta", false, "write incremental (delta-chain) checkpoints: after a full one, each cut stores only the records changed since the previous cut (stepped PCs' histories and changed FCM contexts)")
	ckptFullEvery := flag.Int("checkpoint-full-every", 0, "with -checkpoint-delta, force a full checkpoint after this many deltas and sweep the superseded chain (0 = 8)")
	restore := flag.String("restore", "", "warm-restart from this checkpoint file, or from the newest checkpoint in this directory whose chain resolves (older ones are tried in turn)")
	logLevel := flag.String("log-level", "", "minimum log level (debug|info|warn|error; default $"+obs.LogLevelEnv+", then info)")
	predstatOn := flag.Bool("predstat", true, "track per-PC predictability analytics (GET /predictability, vp_pc_entropy_bits & friends)")
	traceSlow := flag.Duration("trace-slow", 0, "floor of the adaptive slow-request trace threshold (0 = 10ms); slower traced requests are retained in GET /trace")
	traceRetain := flag.Int("trace-retain", 0, "retained-trace flight-recorder capacity (0 = 64)")
	traceRing := flag.Int("trace-span-ring", 0, "provisional span ring size per shard lane (0 = 4096)")
	blockRate := flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate argument for /debug/pprof/block (0 = off)")
	mutexFrac := flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction argument for /debug/pprof/mutex (0 = off)")
	list := flag.Bool("list", false, "list known predictors and exit")
	flag.Parse()

	if *list {
		for _, e := range core.KnownFactories() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Desc)
		}
		return
	}
	lvl, err := obs.ResolveLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := obs.NewLogger(os.Stderr, lvl)
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}

	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *ckptEvery > 0 && *ckptDir == "" {
		fatal(fmt.Errorf("-checkpoint-interval requires -checkpoint-dir"))
	}
	if *ckptDir != "" {
		// Fail fast on an unusable checkpoint directory: discovering it at
		// the final SIGTERM checkpoint would lose all learned state.
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(fmt.Errorf("checkpoint dir: %w", err))
		}
		probe, err := os.CreateTemp(*ckptDir, ".vpsnap-probe-*")
		if err != nil {
			fatal(fmt.Errorf("checkpoint dir is not writable: %w", err))
		}
		probe.Close()
		os.Remove(probe.Name())
	}

	// A restore dictates the shard layout and predictor bank unless the
	// operator explicitly overrides them (and then mismatches are errors).
	var loaded *snapshot.Loaded
	if *restore != "" {
		var chain *snapshot.ChainInfo
		var err error
		if st, statErr := os.Stat(*restore); statErr == nil && st.IsDir() {
			loaded, chain, err = snapshot.ResolveLatest(*restore, func(path string, err error) {
				log.Warn("skipping checkpoint that does not resolve", "path", path, "err", err)
			})
		} else {
			loaded, chain, err = snapshot.ResolveChain(*restore)
		}
		if err != nil {
			fatal(err)
		}
		path := chain.Files[len(chain.Files)-1]
		if !explicit["shards"] {
			*shards = loaded.Meta.Shards
		}
		if !explicit["pred"] {
			*preds = strings.Join(loaded.Meta.Predictors, ",")
		}
		log.Info("restoring snapshot", "id", loaded.Meta.ID, "events", loaded.Meta.Events,
			"shards", loaded.Meta.Shards, "chain_depth", chain.Depth, "path", path)
	}

	facs, err := core.ParseFactories(*preds)
	if err != nil {
		fatal(err)
	}
	s, err := serve.New(serve.Config{
		Shards:           *shards,
		Predictors:       facs,
		MailboxDepth:     *mailbox,
		CheckpointDir:    *ckptDir,
		DeltaCheckpoints: *ckptDelta,
		FullEvery:        *ckptFullEvery,
		Logger:           log,
		PredstatDisabled: !*predstatOn,
		TraceSlowNs:      traceSlow.Nanoseconds(),
		TraceRetain:      *traceRetain,
		TraceSpanRing:    *traceRing,
	})
	if err != nil {
		fatal(err)
	}
	if loaded != nil {
		if err := s.RestoreLoaded(loaded); err != nil {
			fatal(err)
		}
	}
	if err := s.Start(*addr, *httpAddr); err != nil {
		fatal(err)
	}
	log.Info("serving", "addr", s.Addr(), "predictors", strings.Join(s.Predictors(), ","), "shards", *shards)
	if h := s.HTTPAddr(); h != nil {
		log.Info("admin endpoints", "stats", fmt.Sprintf("http://%s/stats", h),
			"metrics", fmt.Sprintf("http://%s/metrics", h), "pprof", fmt.Sprintf("http://%s/debug/pprof/", h))
	}

	// Periodic checkpoints, stopped before shutdown so the final
	// checkpoint never races a ticking one.
	tickerDone := make(chan struct{})
	tickerStopped := make(chan struct{})
	if *ckptEvery > 0 {
		go func() {
			defer close(tickerStopped)
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-tickerDone:
					return
				case <-t.C:
					if _, err := s.WriteCheckpoint(*ckptDir); err != nil {
						// The server logs successful checkpoints itself.
						log.Error("checkpoint failed", "err", err)
					}
				}
			}
		}()
	} else {
		close(tickerStopped)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(tickerDone)
	<-tickerStopped

	// Graceful shutdown: stop accepting, drain every shard mailbox, then
	// write the final checkpoint (when configured) before exiting.
	snapStats := s.Stats()
	info, err := s.Shutdown(*ckptDir)
	if err != nil {
		fatal(err)
	}
	if info.Path != "" {
		log.Info("final checkpoint", "id", info.ID, "events", info.Events, "path", info.Path)
	}
	log.Info("served", "events", snapStats.Events, "unique_pcs", snapStats.UniquePCs)
	if lat := s.BatchLatency(); lat.Count > 0 {
		log.Info("shard batch latency",
			"batches", lat.Count,
			"p50", time.Duration(lat.Quantile(0.50)).Round(time.Microsecond),
			"p90", time.Duration(lat.Quantile(0.90)).Round(time.Microsecond),
			"p99", time.Duration(lat.Quantile(0.99)).Round(time.Microsecond),
			"max", time.Duration(lat.Max).Round(time.Microsecond))
	}
	for _, ps := range snapStats.Predictors {
		fmt.Fprintf(os.Stderr, "  %-8s %6.2f%%  (%d/%d)\n", ps.Name, ps.AccuracyPct, ps.Correct, ps.Total)
	}
	// A dead stats listener is an operational failure even when serving
	// kept going: report it in the exit status.
	if err := s.HTTPErr(); err != nil {
		fatal(fmt.Errorf("http stats listener died: %w", err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpserve:", err)
	os.Exit(1)
}
