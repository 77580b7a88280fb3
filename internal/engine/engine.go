// Package engine executes the paper's experiment suite concurrently.
//
// The serial path (internal/analysis.RunSuite) interleaves simulation and
// prediction in one goroutine: every value event is pushed through five
// predictors and three collectors before the simulator may retire the next
// instruction. The engine decouples the two: each benchmark is simulated
// exactly once, its value events are delivered in fixed-size batches
// (sim.Config.OnValues) and fanned out over bounded channels to a pool of
// predictor workers — one worker per predictor bank — while a merger
// goroutine reconstructs the cross-predictor statistics (Figure 8 subset
// masks, per-static-instruction records, unique-value tracking) from
// per-batch correctness bitsets. Benchmarks themselves run in parallel
// across a configurable worker pool.
//
// Results are deterministic: workers consume batches in program order over
// FIFO channels, every per-event statistic is a commutative counter, and
// suite results are merged in reporting order, so the produced
// analysis.Suite — and every artifact table rendered from it — is
// byte-identical to the serial path (see determinism_test.go).
package engine

import (
	"runtime"
	"sync"

	"repro/internal/analysis"
)

// Config parameterizes a concurrent suite run.
type Config struct {
	// Analysis carries the methodology parameters (event budget, scale,
	// benchmark subset...) shared with the serial path.
	Analysis analysis.Config
	// Workers bounds benchmark-level parallelism: 0 = GOMAXPROCS,
	// 1 = the serial reference path (analysis.RunSuite), used to verify
	// the engine against.
	Workers int
	// BatchSize is the number of value events per delivered batch
	// (0 = DefaultBatchSize).
	BatchSize int
	// Progress, when non-nil, is called with each benchmark's name as it
	// starts. With Workers > 1 calls may come from concurrent goroutines.
	Progress func(name string)
}

// RunSuite runs every configured benchmark once and returns results in
// reporting order regardless of completion order.
func RunSuite(cfg Config) (*analysis.Suite, error) {
	acfg := cfg.Analysis.WithDefaults()
	if cfg.Workers == 1 {
		return analysis.RunSuite(acfg, cfg.Progress)
	}
	workloads, err := analysis.Workloads(acfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(workloads) {
		workers = len(workloads)
	}

	results := make([]*analysis.BenchResult, len(workloads))
	errs := make([]error, len(workloads))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per suite worker: predictor tables, grouping
			// arenas, batch buffers and bitsets are reset in place
			// between benchmarks instead of reallocated per run.
			ar := newArena()
			for i := range idx {
				if cfg.Progress != nil {
					cfg.Progress(workloads[i].Name)
				}
				results[i], errs[i] = ar.runBenchmark(workloads[i], acfg, cfg.BatchSize)
			}
		}()
	}
	for i := range workloads {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &analysis.Suite{Config: acfg, Results: results}, nil
}
