package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own spans: one per call it makes into a layer's public
// API. They stay in memory and are written at exit as Chrome trace-event
// JSON, the format the server's GET /trace/perfetto serves.

// epoch anchors span and latency timestamps on the monotonic clock.
var epoch = time.Now()

// now is monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call. Spans of one request share Trace; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	Name   string
	Trace  uint64
	ID     uint64
	Parent uint64
	Lane   int // trace-viewer row: 0 the benchmark, 1+i client i
	Start  int64
	End    int64
}

// tracer records spans; a nil tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// begin opens a span that end records.
func (t *tracer) begin(name string, trace, parent uint64, lane int) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, Trace: trace, ID: t.ids.Add(1), Parent: parent, Lane: lane, Start: now()}
}

// end closes s now.
func (t *tracer) end(s span) { t.endAt(s, now()) }

// endAt closes s at the given time.
func (t *tracer) endAt(s span, at int64) {
	if t == nil {
		return
	}
	s.End = at
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent uint64, fn func() error) (time.Duration, error) {
	sp := t.begin(name, 0, parent, 0)
	t0 := now()
	err := fn()
	t1 := now()
	t.endAt(sp, t1)
	return time.Duration(t1 - t0), err
}

// selfStat aggregates one span name.
type selfStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns, per span name, the total duration and the self
// time: each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []selfStat {
	if t == nil {
		return nil
	}
	children := make(map[uint64][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	agg := map[string]*selfStat{}
	for _, s := range t.spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, t.spans, children[s.ID]))
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, all []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var sum, end int64
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		sum += v[1] - max(v[0], end)
		end = v[1]
	}
	return sum
}

// writeSelfTimes prints the per-name self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
}

// writeChrome writes the spans as a Chrome trace-event JSON object.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		err = enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]string{
				"id":     fmt.Sprintf("%016x", s.ID),
				"parent": fmt.Sprintf("%016x", s.Parent),
				"trace":  fmt.Sprintf("%016x", s.Trace),
			},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
