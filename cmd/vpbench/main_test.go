package main

import (
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func rep(gomaxprocs int, benches ...BenchResult) Report {
	return Report{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: gomaxprocs, Benchmarks: benches}
}

func TestRatchetCheck(t *testing.T) {
	re := regexp.MustCompile(`^BenchmarkHot`)
	prior := []Report{
		rep(8, BenchResult{Name: "BenchmarkHot", NsPerOp: 100}),
		rep(8, BenchResult{Name: "BenchmarkHot", NsPerOp: 120}),
		// Different parallelism: not comparable, must be ignored even
		// though it is faster.
		rep(4, BenchResult{Name: "BenchmarkHot", NsPerOp: 10}),
	}

	// Within 15% of the best (100): passes.
	v, matched := ratchetCheck(prior, rep(8, BenchResult{Name: "BenchmarkHot", NsPerOp: 114}), re, 15, io.Discard)
	if v != 0 || !matched {
		t.Fatalf("within limit: violations=%d matched=%v, want 0 true", v, matched)
	}

	// Beyond 15% of the best: fails.
	var buf strings.Builder
	v, _ = ratchetCheck(prior, rep(8, BenchResult{Name: "BenchmarkHot", NsPerOp: 116}), re, 15, &buf)
	if v != 1 {
		t.Fatalf("regression: violations=%d, want 1\n%s", v, buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL ratchet BenchmarkHot") {
		t.Fatalf("missing FAIL line:\n%s", buf.String())
	}

	// No comparable history: seeds, passes.
	buf.Reset()
	v, matched = ratchetCheck(nil, rep(8, BenchResult{Name: "BenchmarkHotNew", NsPerOp: 500}), re, 15, &buf)
	if v != 0 || !matched {
		t.Fatalf("seed: violations=%d matched=%v, want 0 true", v, matched)
	}
	if !strings.Contains(buf.String(), "seeding") {
		t.Fatalf("missing seeding note:\n%s", buf.String())
	}

	// Five samples (a -count 5 run) are judged on their median: one
	// sample past the limit passes, a median past it fails.
	samples := func(ns ...float64) Report {
		var bs []BenchResult
		for _, n := range ns {
			bs = append(bs, BenchResult{Name: "BenchmarkHot", NsPerOp: n})
		}
		return rep(8, bs...)
	}
	if v, _ = ratchetCheck(prior, samples(104, 160, 99, 112, 108), re, 15, io.Discard); v != 0 {
		t.Fatalf("one slow sample of five: violations=%d, want 0", v)
	}
	buf.Reset()
	if v, _ = ratchetCheck(prior, samples(118, 95, 121, 101, 117), re, 15, &buf); v != 1 {
		t.Fatalf("median 117 past the limit 115: violations=%d, want 1\n%s", v, buf.String())
	}
	if !strings.Contains(buf.String(), "median 117.0") {
		t.Fatalf("FAIL line does not give the median:\n%s", buf.String())
	}
	// A prior record counts at its median too: its one fast sample does
	// not lower the best.
	withSamples := append(prior, samples(50, 130, 140))
	if v, _ = ratchetCheck(withSamples, samples(114), re, 15, io.Discard); v != 0 {
		t.Fatalf("prior record's fast sample set the best: violations=%d, want 0", v)
	}

	// Regex matching nothing reports matched=false.
	if _, matched = ratchetCheck(prior, rep(8, BenchResult{Name: "BenchmarkCold", NsPerOp: 1}), re, 15, io.Discard); matched {
		t.Fatal("matched should be false for non-matching regex")
	}
}

func TestBestPriorNsZeroIgnored(t *testing.T) {
	prior := []Report{rep(8, BenchResult{Name: "B", NsPerOp: 0})}
	if _, ok := bestPriorNs(prior, rep(8), "B"); ok {
		t.Fatal("zero ns/op records must not seed the ratchet")
	}
}

func TestChangedBesidesHistory(t *testing.T) {
	top := t.TempDir()
	hist := filepath.Join(top, "BENCH_core.json")
	for _, c := range []struct {
		changed []string
		history string
		dirty   bool
	}{
		{[]string{""}, hist, false},
		{[]string{"BENCH_core.json", ""}, hist, false},
		{[]string{"BENCH_core.json", "internal/core/fcm.go", ""}, hist, true},
		{[]string{"BENCH_core.json", ""}, filepath.Join(top, "other.json"), true},
		{[]string{"BENCH_core.json", ""}, "-", true},
	} {
		if got := changedBesides(top, c.changed, c.history); got != c.dirty {
			t.Errorf("changedBesides(%q, history %q) = %t, want %t", c.changed, c.history, got, c.dirty)
		}
	}
	// -out is usually relative to the checkout root.
	t.Chdir(top)
	if changedBesides(top, []string{"BENCH_core.json", ""}, "BENCH_core.json") {
		t.Error("the relative history path counts as another changed file")
	}
}
