package main

import (
	"testing"
	"time"
)

// Quantiles are exact order statistics (nearest rank), and beyond counts
// the samples strictly above p99.
func TestLatencySummaryExact(t *testing.T) {
	var l latencies
	for i := 200; i >= 1; i-- {
		l = append(l, time.Duration(i))
	}
	p50, p99, beyond := l.summary()
	if p50 != 100 || p99 != 198 || beyond != 2 {
		t.Fatalf("p50 %d p99 %d beyond %d, want 100 198 2", p50, p99, beyond)
	}
}

// Self time is a span minus the union of its children's intervals,
// clipped to the span: overlapping children count once.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", ID: 3, Parent: 1, Start: 30, End: 50},
		{Name: "child", ID: 4, Parent: 1, Start: 90, End: 120},
	}}
	want := map[string][2]time.Duration{"root": {100, 50}, "child": {80, 80}}
	for _, st := range tr.selfTimes() {
		if w := want[st.Name]; st.Total != w[0] || st.Self != w[1] {
			t.Errorf("%s: total %d self %d, want %d %d", st.Name, st.Total, st.Self, w[0], w[1])
		}
	}
}
