package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies holds raw per-request round trips. Quantiles are exact
// order statistics of the samples (nearest rank), never bucket
// interpolations.
type latencies []time.Duration

// quantile returns the nearest-rank q-quantile of sorted samples.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	r := int(float64(len(l))*q+0.999999999) - 1
	return l[max(0, min(r, len(l)-1))]
}

// summary sorts the samples and returns p50, p99 and how many samples
// lie strictly above p99.
func (l latencies) summary() (p50, p99 time.Duration, beyond int) {
	slices.Sort(l)
	p50, p99 = l.quantile(0.50), l.quantile(0.99)
	for i := len(l) - 1; i >= 0 && l[i] > p99; i-- {
		beyond++
	}
	return p50, p99, beyond
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rounded rounds each value to 1/scale, for report lines.
func rounded(xs []float64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*scale) / scale
	}
	return out
}

// rtSample reads runtime/metrics counters that bracket a phase.
type rtSample struct {
	gcCPU, totalCPU float64 // cpu-seconds
	gcCycles        uint64
	allocBytes      uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return rtSample{gcCPU: f(0), totalCPU: f(1), gcCycles: u(2), allocBytes: u(3)}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// cpuTicks reads the aggregate steal and total ticks from /proc/stat
// (zero where the file does not exist).
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, fv := range fields[1:] {
		v, _ := strconv.ParseUint(fv, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealClock measures the share of CPU ticks the hypervisor stole
// since it started.
type stealClock struct{ steal, total uint64 }

func startSteal() stealClock {
	s, t := cpuTicks()
	return stealClock{s, t}
}

// ticks returns the stolen and total ticks since the clock started.
func (c stealClock) ticks() (steal, total uint64) {
	s, t := cpuTicks()
	return s - c.steal, t - c.total
}

// share returns the stolen share of ticks since the clock started.
func (c stealClock) share() float64 {
	s, t := c.ticks()
	return ratio(float64(s), float64(t))
}

func (c stealClock) String() string {
	s, t := c.ticks()
	return fmt.Sprintf("%d ticks of %d (%.2f%%)", s, t, 100*ratio(float64(s), float64(t)))
}

// buildInfo returns the VCS revision (when the build was stamped) and
// the build tags of this binary.
func buildInfo() (commit, tags string) {
	commit, tags = "unstamped", "none"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			commit = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				commit += "+dirty"
			}
		case "-tags":
			if s.Value != "" {
				tags = s.Value
			}
		}
	}
	return
}
