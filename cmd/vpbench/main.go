// vpbench runs the predictor micro-benchmarks through `go test -bench`
// and appends a machine-readable JSON record (commit, timestamp, name,
// ns/op, B/op, allocs/op plus any custom metrics) to a history file, so
// successive PRs accrue the performance trajectory of the hot path in a
// stable artifact instead of scraping log text.
//
// It can also act as an allocation-regression gate: with
// -assert-zero-alloc, every matching benchmark must report 0 allocs/op
// or the run exits non-zero. CI points this at the steady-state FCM and
// bank batch benchmarks so a change that reintroduces per-event
// allocation fails loudly.
//
// Usage (from the module root):
//
//	go run ./cmd/vpbench                       # append to BENCH_core.json from BenchmarkPredict*
//	go run ./cmd/vpbench -bench 'BenchmarkServe' -benchtime 1x -out BENCH_serve.json
//	go run ./cmd/vpbench -assert-zero-alloc 'BenchmarkPredictFCM3Steady$'
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// BenchResult is one benchmark line in a record.
type BenchResult struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any additional per-op metrics the benchmark reported
	// (e.g. "events/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is one run's record: where and when it ran plus its results.
type Report struct {
	// Commit is the HEAD commit SHA at run time (empty outside a git
	// checkout, suffixed "-dirty" when tracked files differ from HEAD)
	// and Time the run's UTC timestamp — together they place the record
	// on the perf trajectory.
	Commit    string `json:"commit,omitempty"`
	Time      string `json:"time"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and NumCPU pin the parallelism the numbers were measured
	// at — ns/op from hosts with different core counts are not comparable,
	// and the -N benchmark-name suffix alone does not record the machine.
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Package    string        `json:"package"`
	Bench      string        `json:"bench"`
	Benchtime  string        `json:"benchtime"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// History is the top-level JSON artifact: one record per vpbench run,
// appended in run order so the file accrues the trajectory across PRs.
type History struct {
	Schema  int      `json:"schema"`
	Entries []Report `json:"entries"`
}

// historySchema identifies the artifact layout; bumped if the shape of
// entries ever changes incompatibly.
const historySchema = 1

// benchLine matches one `go test -bench` result row:
//
//	BenchmarkPredictFCM3-8   1000000   918.4 ns/op   598 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parseBenchOutput(out []byte) []BenchResult {
	var results []BenchResult
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := BenchResult{Name: m[1], Iterations: iters}
		// The tail is whitespace-separated (value, unit) pairs.
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[fields[i+1]] = v
			}
		}
		results = append(results, r)
	}
	return results
}

// bestPriorNs returns the fastest ns/op ever recorded for benchmark name
// across the prior history entries, considering only records measured in
// a comparable environment (same GOOS/GOARCH/GOMAXPROCS — ns/op across
// machines or parallelism settings are not comparable). ok is false when
// no prior record has the benchmark.
func bestPriorNs(prior []Report, cur Report, name string) (best float64, ok bool) {
	for _, rep := range prior {
		if rep.GOOS != cur.GOOS || rep.GOARCH != cur.GOARCH || rep.GOMAXPROCS != cur.GOMAXPROCS {
			continue
		}
		for _, b := range rep.Benchmarks {
			if b.Name != name || b.NsPerOp <= 0 {
				continue
			}
			if !ok || b.NsPerOp < best {
				best, ok = b.NsPerOp, true
			}
		}
	}
	return best, ok
}

// ratchetCheck is the ns/op regression gate: every benchmark in cur
// matching re must stay within pct percent of the best comparable prior
// record. Benchmarks with no history pass with a note (the first run
// seeds the ratchet). Returns the number of regressions and whether re
// matched any benchmark at all.
func ratchetCheck(prior []Report, cur Report, re *regexp.Regexp, pct float64, w io.Writer) (violations int, matched bool) {
	for _, b := range cur.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		matched = true
		best, ok := bestPriorNs(prior, cur, b.Name)
		if !ok {
			fmt.Fprintf(w, "vpbench: ratchet %s: no comparable history, seeding at %.1f ns/op\n", b.Name, b.NsPerOp)
			continue
		}
		limit := best * (1 + pct/100)
		if b.NsPerOp > limit {
			fmt.Fprintf(w, "vpbench: FAIL ratchet %s: %.1f ns/op exceeds best %.1f by more than %.0f%% (limit %.1f)\n",
				b.Name, b.NsPerOp, best, pct, limit)
			violations++
		} else {
			fmt.Fprintf(w, "vpbench: ok   ratchet %s: %.1f ns/op vs best %.1f (limit %.1f)\n",
				b.Name, b.NsPerOp, best, limit)
		}
	}
	return violations, matched
}

// headCommit returns the checkout's HEAD SHA, best-effort: perf records
// remain useful (just unplaced) outside a git checkout. When a tracked
// file other than the history file itself differs from HEAD, the SHA
// carries a "-dirty" suffix: the figures were measured on code HEAD does
// not hold, and must not be read as HEAD's. Untracked files are not
// looked at.
func headCommit(history string) string {
	out, err := exec.Command("git", "rev-parse", "HEAD", "--show-toplevel").Output()
	if err != nil {
		return ""
	}
	f := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(f) != 2 {
		return ""
	}
	sha, top := f[0], f[1]
	diff, err := exec.Command("git", "diff", "--name-only", "-z", "HEAD").Output()
	if err != nil {
		return sha
	}
	if changedBesides(top, strings.Split(string(diff), "\x00"), history) {
		return sha + "-dirty"
	}
	return sha
}

// changedBesides reports whether changed, paths relative to the checkout
// root top, names any file other than history.
func changedBesides(top string, changed []string, history string) bool {
	hist := ""
	if history != "" && history != "-" {
		hist = realPath(history)
	}
	top = realPath(top)
	for _, c := range changed {
		if c != "" && filepath.Join(top, c) != hist {
			return true
		}
	}
	return false
}

// realPath is p made absolute with its directory's symlinks resolved, so
// the working directory's spelling and git's compare equal.
func realPath(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	if dir, err := filepath.EvalSymlinks(filepath.Dir(abs)); err == nil {
		return filepath.Join(dir, filepath.Base(abs))
	}
	return abs
}

// loadHistory reads an existing history file. A file written by the old
// single-report vpbench (a bare Report object, no "entries" key) is
// migrated into the first history entry, so trajectories started before
// the format change are not lost.
func loadHistory(path string) (History, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return History{Schema: historySchema}, nil
		}
		return History{}, err
	}
	var h History
	if err := json.Unmarshal(data, &h); err == nil && h.Entries != nil {
		h.Schema = historySchema
		return h, nil
	}
	var legacy Report
	if err := json.Unmarshal(data, &legacy); err == nil && len(legacy.Benchmarks) > 0 {
		return History{Schema: historySchema, Entries: []Report{legacy}}, nil
	}
	return History{}, fmt.Errorf("%s is neither a vpbench history nor a legacy report", path)
}

func main() {
	var (
		bench      = flag.String("bench", "BenchmarkPredict", "benchmark regex passed to go test -bench")
		benchtime  = flag.String("benchtime", "100x", "benchtime passed to go test (e.g. 100x, 1s)")
		pkg        = flag.String("pkg", ".", "package to benchmark (module-root package holds the predictor benchmarks)")
		out        = flag.String("out", "BENCH_core.json", "history JSON path to append to ('' or '-' prints only this run to stdout)")
		count      = flag.Int("count", 1, "benchmark repetition count")
		assertRE   = flag.String("assert-zero-alloc", "", "regex of benchmarks that must report 0 allocs/op; non-zero exit on violation or no match")
		ratchetRE  = flag.String("ratchet", "", "regex of benchmarks whose ns/op must stay within -ratchet-pct of the best comparable history record; non-zero exit on regression (requires a history -out)")
		ratchetPct = flag.Float64("ratchet-pct", 15, "allowed ns/op regression over the historical best, in percent")
	)
	flag.Parse()
	if *ratchetRE != "" && (*out == "" || *out == "-") {
		fmt.Fprintln(os.Stderr, "vpbench: -ratchet requires a history file (-out)")
		os.Exit(1)
	}

	args := []string{
		"test", "-run=^$",
		"-bench=" + *bench,
		"-benchmem",
		"-benchtime=" + *benchtime,
		"-count=" + strconv.Itoa(*count),
		*pkg,
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	os.Stdout.Write(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vpbench: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	report := Report{
		Commit:     headCommit(*out),
		Time:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Package:    *pkg,
		Bench:      *bench,
		Benchtime:  *benchtime,
		Benchmarks: parseBenchOutput(raw),
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "vpbench: no benchmarks matched %q\n", *bench)
		os.Exit(1)
	}

	var prior []Report
	if *out == "" || *out == "-" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(append(data, '\n'))
	} else {
		hist, err := loadHistory(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: %v\n", err)
			os.Exit(1)
		}
		prior = append(prior, hist.Entries...)
		hist.Entries = append(hist.Entries, report)
		data, err := json.MarshalIndent(hist, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vpbench: appended to %s (%d benchmarks, %d records)\n",
			*out, len(report.Benchmarks), len(hist.Entries))
	}

	if *assertRE != "" {
		re, err := regexp.Compile(*assertRE)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: bad -assert-zero-alloc regex: %v\n", err)
			os.Exit(1)
		}
		matched := false
		failed := false
		for _, r := range report.Benchmarks {
			if !re.MatchString(r.Name) {
				continue
			}
			matched = true
			if r.AllocsPerOp != 0 {
				fmt.Fprintf(os.Stderr, "vpbench: FAIL %s allocates %.1f allocs/op (want 0)\n", r.Name, r.AllocsPerOp)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "vpbench: ok   %s is allocation-free\n", r.Name)
			}
		}
		if !matched {
			fmt.Fprintf(os.Stderr, "vpbench: -assert-zero-alloc %q matched no benchmark\n", *assertRE)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
	}

	if *ratchetRE != "" {
		re, err := regexp.Compile(*ratchetRE)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vpbench: bad -ratchet regex: %v\n", err)
			os.Exit(1)
		}
		violations, matched := ratchetCheck(prior, report, re, *ratchetPct, os.Stderr)
		if !matched {
			fmt.Fprintf(os.Stderr, "vpbench: -ratchet %q matched no benchmark\n", *ratchetRE)
			os.Exit(1)
		}
		if violations > 0 {
			os.Exit(1)
		}
	}
}
