package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

// phase is one timed stretch of serving: the requests its connections
// carried and what the server and runtime reported around it.
type phase struct {
	round    int // attempt number within the run
	traced   bool
	events   int
	elapsed  time.Duration
	heapMB   float64
	conns    []*conn
	stats    serve.Snapshot
	server   serverScrape
	rt0, rt1 rtSample
	steal    float64 // share of CPU ticks stolen during the whole round
}

// tracer returns the run's tracer for a traced phase, nil otherwise.
func (ph *phase) tracer(e *env) *tracer {
	if ph.traced {
		return e.tr
	}
	return nil
}

// serverScrape is what a finished phase's server exposes through its
// public metrics and tracer.
type serverScrape struct {
	requestSum, requestCount float64 // vp_request_ns
	cutSum, cutCount         float64 // vp_checkpoint_cut_ns
	encSum, encCount         float64 // vp_checkpoint_encode_ns
	stageSpans, stageNs      map[string]float64
}

// scrape reads the server's request and checkpoint histograms from its
// Prometheus exposition and the per-stage span totals from its tracer.
func scrape(srv *serve.Server) serverScrape {
	var sc serverScrape
	var buf bytes.Buffer
	if err := srv.MetricsRegistry().WritePrometheus(&buf); err == nil {
		s := bufio.NewScanner(&buf)
		for s.Scan() {
			f := strings.Fields(s.Text())
			if len(f) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			switch f[0] {
			case "vp_request_ns_sum":
				sc.requestSum = v
			case "vp_request_ns_count":
				sc.requestCount = v
			case "vp_checkpoint_cut_ns_sum":
				sc.cutSum = v
			case "vp_checkpoint_cut_ns_count":
				sc.cutCount = v
			case "vp_checkpoint_encode_ns_sum":
				sc.encSum = v
			case "vp_checkpoint_encode_ns_count":
				sc.encCount = v
			}
		}
	}
	sc.stageSpans, sc.stageNs = map[string]float64{}, map[string]float64{}
	for _, st := range srv.Tracer().StageSummary() {
		sc.stageSpans[st.Stage] = float64(st.Spans)
		sc.stageNs[st.Stage] = float64(st.Ns)
	}
	return sc
}

// since returns the request histogram's growth since an earlier scrape
// of the same server: the timed phase alone, without its warm-up.
func (sc serverScrape) since(before serverScrape) serverScrape {
	sc.requestSum -= before.requestSum
	sc.requestCount -= before.requestCount
	return sc
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportServe derives the serve metrics from the phases of a run:
// end-to-end metrics from the untraced phases, per-layer metrics from the
// traced ones.
func reportServe(e *env, phases []*phase) {
	var heaps, rates, tracedRates []float64
	var tracedServed int
	var pooled latencies
	for _, ph := range phases {
		var lat latencies
		for _, k := range ph.conns {
			for _, ns := range k.lat {
				lat = append(lat, time.Duration(ns))
			}
		}
		p50, p99, beyond := lat.summary()
		rate := float64(ph.events) / ph.elapsed.Seconds()
		note("round %d traced=%t events=%d requests=%d beyond_p99=%d elapsed_s=%.3f events_per_s=%.0f p50_ms=%.3f p99_ms=%.3f gc_cycles=%d steal=%.1f%%",
			ph.round, ph.traced, ph.events, len(lat), beyond, ph.elapsed.Seconds(), rate,
			ms(p50), ms(p99), ph.rt1.gcCycles-ph.rt0.gcCycles, 100*ph.steal)
		if ph.traced {
			tracedServed += ph.events
			tracedRates = append(tracedRates, rate)
			continue
		}
		rates = append(rates, rate)
		heaps = append(heaps, ph.heapMB)
		pooled = append(pooled, lat...)
	}
	// The rate is the median over untraced phases; latency quantiles are
	// exact order statistics of every untraced phase's raw samples.
	p50, p99, beyond := pooled.summary()
	note("latency samples=%d beyond_p99=%d over %d untraced phases", len(pooled), beyond, len(heaps))
	rate := median(rates)
	e.endToEndMetric("events_per_s", rate, "events/s")
	e.endToEndMetric("req_p50_ms", ms(p50), "ms")
	e.endToEndMetric("req_p99_ms", ms(p99), "ms")
	e.endToEndMetric("heap_mb", median(heaps), "MB")
	if !e.traced {
		return
	}

	// Per-layer: summed over the traced phases.
	var sc serverScrape
	sc.stageSpans, sc.stageNs = map[string]float64{}, map[string]float64{}
	var gcCPU, totalCPU, gcCycles, highwater, written, deduped float64
	ntraced := 0
	for _, ph := range phases {
		if !ph.traced {
			continue
		}
		ntraced++
		s := ph.server
		sc.requestSum += s.requestSum
		sc.requestCount += s.requestCount
		sc.cutSum += s.cutSum
		sc.cutCount += s.cutCount
		sc.encSum += s.encSum
		sc.encCount += s.encCount
		for k, v := range s.stageSpans {
			sc.stageSpans[k] += v
			sc.stageNs[k] += s.stageNs[k]
		}
		gcCPU += ph.rt1.gcCPU - ph.rt0.gcCPU
		totalCPU += ph.rt1.totalCPU - ph.rt0.totalCPU
		gcCycles += float64(ph.rt1.gcCycles - ph.rt0.gcCycles)
		for _, sh := range ph.stats.PerShard {
			highwater = max(highwater, float64(sh.MailboxHighWater))
		}
		written += float64(ph.stats.Checkpoints.ChunksWritten)
		deduped += float64(ph.stats.Checkpoints.ChunksDeduped)
	}
	var sendNs, sends float64
	for _, st := range e.tr.selfTimes() {
		if st.Name == "serve.send" {
			sendNs, sends = float64(st.Total), float64(st.Count)
		}
	}
	e.layerMetric("serve.send_us_per_req", ratio(sendNs, sends)/1e3, "us")
	e.layerMetric("serve.request_ms_mean", ratio(sc.requestSum, sc.requestCount)/1e6, "ms")
	e.layerMetric("serve.enqueue_us_per_req", ratio(sc.stageNs["enqueue"], sc.stageSpans["enqueue"])/1e3, "us")
	e.layerMetric("serve.queue_wait_us_per_subbatch",
		ratio(sc.stageNs["shard"]-sc.stageNs["bank"], sc.stageSpans["shard"])/1e3, "us")
	e.layerMetric("serve.bank_ns_per_event", ratio(sc.stageNs["bank"], float64(tracedServed)), "ns")
	e.layerMetric("serve.subbatches_per_req", ratio(sc.stageSpans["shard"], sc.stageSpans["conn"]), "count")
	e.layerMetric("serve.mailbox_highwater", highwater, "count")
	e.layerMetric("snapshot.cut_ms", ratio(sc.cutSum, sc.cutCount)/1e6, "ms")
	e.layerMetric("snapshot.encode_ms", ratio(sc.encSum, sc.encCount)/1e6, "ms")
	e.layerMetric("snapshot.dedupe_ratio", ratio(deduped, written+deduped), "ratio")
	e.layerMetric("go.gc_cpu_frac", ratio(gcCPU, totalCPU), "ratio")
	e.layerMetric("go.gc_cycles", ratio(gcCycles, float64(ntraced)), "count")
	e.layerMetric("obs.trace_overhead_frac", 1-ratio(median(tracedRates), rate), "ratio")
}
