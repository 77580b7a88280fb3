// Command perfbench is the repository's end-to-end benchmark. It boots a
// real serve.Server in-process on loopback and drives it through the
// public serve.Client (workloads programs, programs-cold and loops), or
// runs the paper's experiments.RunAll (workload paper), checks that every
// output is correct, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans around every call into a layer, writes them as
// Chrome trace-event JSON, and reports the per-layer metrics.
//
//	go run . -workload programs -seed 1 -seconds 10 -trace 0
//
// run.sh builds the same program with its caches inside the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares for
// the serve workloads, in report order; the JSON result carries exactly
// these. Workloads report further metrics on their own report lines:
// req_p99_ms and failed_frac on every run, the paper workload's own set.
var (
	endToEnd = []string{
		"events_per_s", "req_p50_ms", "setup_s",
		"heap_mb", "ckpt_s", "ckpt_mb",
	}
	perLayer = []string{
		"serve.send_us_per_req", "serve.request_ms_mean", "serve.enqueue_us_per_req",
		"serve.queue_wait_us_per_subbatch", "serve.bank_ns_per_event",
		"serve.subbatches_per_req", "serve.mailbox_highwater",
		"core.bank_ns_per_event", "core.l_ns_per_event", "core.s2_ns_per_event",
		"core.fcm1_ns_per_event", "core.fcm2_ns_per_event", "core.fcm3_ns_per_event",
		"core.fcm3_contexts", "core.alloc_bytes_per_event",
		"predstat.observe_ns_per_event",
		"snapshot.cut_ms", "snapshot.encode_ms", "snapshot.dedupe_ratio",
		"snapshot.decode_ms", "snapshot.load_ms", "snapshot.state_mb",
		"go.gc_cpu_frac", "go.gc_cycles", "obs.trace_overhead_frac",
	}
)

// workloads maps each workload name to its run.
var workloads = map[string]func(*env) error{
	"programs": runPrograms, "programs-cold": runProgramsCold, "loops": runLoops, "paper": runPaper,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's settings and its accumulating report.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	nproc    int
	outDir   string  // run artifacts (checkpoints, span files)
	tr       *tracer // nil unless traced

	e2e, layer map[string]metric
	order      []string // report order of every metric set
	attempted  int64
	failed     int64
	gateErr    error
}

func (e *env) set(m map[string]metric, name string, v float64, unit string) {
	if _, ok := e.e2e[name]; !ok {
		if _, ok := e.layer[name]; !ok {
			e.order = append(e.order, name)
		}
	}
	m[name] = metric{Value: v, Unit: unit}
}

// endToEndMetric and layerMetric record a measured value.
func (e *env) endToEndMetric(name string, v float64, unit string) { e.set(e.e2e, name, v, unit) }
func (e *env) layerMetric(name string, v float64, unit string)    { e.set(e.layer, name, v, unit) }

// gate records a failed correctness check; the first one is reported.
func (e *env) gate(err error) {
	if err != nil && e.gateErr == nil {
		e.gateErr = err
	}
}

// note prints one human-readable report line.
func note(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "programs, programs-cold, loops or paper")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: record spans and report per-layer metrics")
	out := flag.String("out", filepath.Join(repoRoot(), ".bench_build", "runs"), "directory for checkpoints and span files")
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		nproc: nproc, e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if e.traced {
		e.tr = &tracer{}
	}
	run, ok := workloads[e.workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload programs|programs-cold|loops|paper -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	e.outDir = filepath.Join(*out, fmt.Sprintf("%s-%d-%d", e.workload, e.seed, os.Getpid()))
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fatal(err)
	}
	commit, tags := buildInfo()
	note("run workload=%s seed=%d seconds=%g trace=%d", e.workload, e.seed, e.seconds, *trace)
	note("run commit=%s go=%s tags=%s nproc=%d gomaxprocs=%d",
		commit, runtime.Version(), tags, nproc, runtime.GOMAXPROCS(0))
	note("run out_dir=%s fs=%s", e.outDir, fsType(e.outDir))

	err := run(e)
	if err != nil {
		// An error before the result (setup, I/O) is not a measurement.
		os.RemoveAll(e.outDir)
		fatal(err)
	}
	if e.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", e.workload, e.seed))
		if err := e.tr.writeChrome(path); err != nil {
			fatal(err)
		}
		note("spans written to %s", path)
		e.tr.writeSelfTimes(os.Stdout)
	}
	os.RemoveAll(e.outDir)
	finish(e)
}

// finish prints every metric, then the JSON result line, and exits
// non-zero when a correctness gate failed.
func finish(e *env) {
	res := e.result()
	if e.gateErr != nil {
		note("gate FAILED: %v", e.gateErr)
	} else {
		note("gate ok")
	}
	for _, name := range e.order {
		kind, m := "e2e", e.e2e[name]
		if lm, ok := e.layer[name]; ok {
			kind, m = "layer", lm
		}
		note("%-5s %-34s %16s %s", kind, name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result assembles the run's result: a failed gate fails every attempt.
// It records failed_frac, and carries the declared metrics of the run's
// kind (every measured one for paper, which BENCHMARK.json does not
// list).
func (e *env) result() result {
	res := result{Correct: e.gateErr == nil, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	e.endToEndMetric("failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	declared, src := endToEnd, e.e2e
	if e.traced {
		declared, src = perLayer, e.layer
	}
	if e.workload == "paper" {
		declared = nil
		for _, name := range e.order {
			if _, ok := src[name]; ok {
				declared = append(declared, name)
			}
		}
	}
	for _, name := range declared {
		m, ok := src[name]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", name))
		}
		res.Metrics[name] = m
	}
	return res
}

// repoRoot is the repository root: the working directory when run from
// the root (as run.sh does), its parent when run from perfbench itself.
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// errGate wraps every correctness-gate failure, so tests can tell a
// failed gate from an error that stopped the run.
var errGate = errors.New("correctness gate")
