// Command vpredict regenerates the tables and figures of "The
// Predictability of Data Values" (Sazeides & Smith, MICRO-30, 1997).
//
// Usage:
//
//	vpredict -list                 # show all experiments
//	vpredict -exp fig3             # one experiment
//	vpredict -exp all              # everything (one shared benchmark pass)
//	vpredict -exp fig3 -events 2000000 -bench compress,gcc
//	vpredict -exp all -workers 8   # benchmark-level parallelism
//	vpredict -exp all -workers 1   # serial reference path
//
// Events default to 500k predicted instructions per benchmark; raise for
// tighter numbers, lower for quick looks. The shared suite pass runs on
// internal/engine: benchmarks execute in parallel across -workers
// goroutines (default GOMAXPROCS) and each benchmark's value events fan
// out in -batch sized batches to one worker per predictor. Results are
// deterministic for a given (events, scale) configuration — the same
// bytes at every -workers/-batch setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all'")
		events   = flag.Uint64("events", 500_000, "max predicted instructions per benchmark run (0 = to completion)")
		scale    = flag.Int("scale", 1, "workload input scale factor")
		benches  = flag.String("bench", "", "comma-separated benchmark subset (default all seven)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel benchmark workers for the suite pass (1 = serial path)")
		batch    = flag.Int("batch", engine.DefaultBatchSize, "value events per delivery batch (engine path; -workers 1 uses per-event delivery)")
		list     = flag.Bool("list", false, "list experiments and exit")
		quiet    = flag.Bool("q", false, "suppress progress output")
		metrics  = flag.Bool("metrics", false, "dump engine instrumentation (Prometheus text) to stderr after the run")
		logLevel = flag.String("log-level", "", "minimum log level (debug|info|warn|error; default $"+obs.LogLevelEnv+", then info)")
	)
	flag.Parse()

	lvl, err := obs.ResolveLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(1)
	}
	log := obs.NewLogger(os.Stderr, lvl)

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		Events:    *events,
		Scale:     *scale,
		Workers:   *workers,
		BatchSize: *batch,
	}
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	if !*quiet {
		cfg.Progress = func(name string) {
			log.Info("running benchmark", "name", name)
		}
	}

	if *exp == "all" {
		err = experiments.RunAll(os.Stdout, cfg)
	} else {
		err = experiments.RunOne(os.Stdout, *exp, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpredict:", err)
		os.Exit(1)
	}
	if *metrics {
		// The engine's fan-out counters and worker-busy histograms live on
		// the process-wide default registry.
		obs.Default.WritePrometheus(os.Stderr)
		// Per-stage span totals from the fan-out tracer: the offline
		// counterpart of the serving tier's GET /trace stage summary.
		if stats := engine.TraceStageSummary(); len(stats) > 0 {
			fmt.Fprintln(os.Stderr, "# fan-out stage spans (stage spans total_ns)")
			for _, st := range stats {
				fmt.Fprintf(os.Stderr, "#   %-8s %10d %14d\n", st.Stage, st.Spans, st.Ns)
			}
		}
	}
}
