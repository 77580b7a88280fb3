package serve

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
)

// httpHandler serves the introspection endpoints:
//
//	GET  /healthz   liveness + health: {"status":"ok",...} or, when a
//	                checkpoint cut is stuck past its deadline or a shard
//	                mailbox has sat saturated for the configured number of
//	                monitor intervals, HTTP 503 with
//	                {"status":"degraded","reasons":[...]}
//	GET  /stats     full Snapshot (aggregate + per-shard accuracy, events/sec,
//	                unique PCs, table occupancy, exact state bytes,
//	                protocol and checkpoint counters, restore provenance)
//	GET  /metrics   Prometheus text exposition of every vp_* series
//	GET  /events    the stage-event trace ring (checkpoints, restores,
//	                slow batches, predictability gaps, drain), oldest
//	                first; ?n= keeps only the most recent N, ?kind=
//	                filters by event kind, and ?since= resumes after a
//	                previously seen sequence number (the response's
//	                last_seq), so pollers tail the ring without
//	                re-reading old events
//	GET  /trace     retained request traces (tail-sampled slow/degraded
//	                requests, head-sampled ones, checkpoints), newest
//	                first, each with its recorded spans; ?min_ns= keeps
//	                only traces at least that slow, ?n= caps the count
//	GET  /trace/perfetto  the same traces as Chrome trace-event JSON —
//	                save the body to a file and open it in
//	                https://ui.perfetto.dev or chrome://tracing
//	GET  /predictability  merged predictability report: top-N (?n=,
//	                default 10) hardest and easiest PCs with sequence
//	                class, entropy ceiling and realized accuracy, plus
//	                per-class event tallies and per-predictor ceiling gaps
//	POST /snapshot  write a checkpoint now (requires a configured
//	                checkpoint directory); answers with CheckpointInfo.
//	                ?full=1 forces a full cut even in delta mode,
//	                rooting a fresh chain
//	/debug/pprof/*  the standard runtime profiles
func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"status":     "ok",
			"shards":     len(s.shards),
			"predictors": s.predNames,
		}
		if reasons := s.healthReasons(time.Now()); len(reasons) > 0 {
			body["status"] = "degraded"
			body["reasons"] = reasons
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			writeJSONBody(w, body)
			return
		}
		writeJSON(w, body)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		var evs []obs.StageEvent
		if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
			since, err := strconv.ParseUint(sinceStr, 10, 64)
			if err != nil {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				writeJSONBody(w, map[string]any{"error": "since must be a non-negative integer (a previously returned last_seq)"})
				return
			}
			evs = s.ring.EventsSince(since)
		} else {
			evs = s.ring.Events()
		}
		if kind := r.URL.Query().Get("kind"); kind != "" {
			kept := evs[:0]
			for _, ev := range evs {
				if ev.Kind == kind {
					kept = append(kept, ev)
				}
			}
			evs = kept
		}
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				writeJSONBody(w, map[string]any{"error": "n must be a non-negative integer"})
				return
			}
			if n < len(evs) {
				evs = evs[len(evs)-n:] // most recent N, still oldest first
			}
		}
		// last_seq is the newest sequence number ever assigned — the
		// cursor a poller passes back as ?since= on its next poll.
		writeJSON(w, map[string]any{
			"total":    s.ring.Total(),
			"last_seq": s.ring.Total(),
			"events":   evs,
		})
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		minNs, n, ok := traceFilters(w, r)
		if !ok {
			return
		}
		writeJSON(w, map[string]any{
			"slow_ns":  s.tracer.SlowNs(),
			"promoted": s.tracer.Promoted(),
			"stages":   s.tracer.StageSummary(),
			"traces":   s.tracer.Traces(minNs, n),
		})
	})
	mux.HandleFunc("GET /trace/perfetto", func(w http.ResponseWriter, r *http.Request) {
		minNs, n, ok := traceFilters(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="vpserve-trace.json"`)
		otrace.WritePerfetto(w, s.tracer.Traces(minNs, n))
	})
	mux.HandleFunc("GET /predictability", func(w http.ResponseWriter, r *http.Request) {
		topN := 10
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			n, err := strconv.Atoi(nStr)
			if err != nil || n <= 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				writeJSONBody(w, map[string]any{"error": "n must be a positive integer"})
				return
			}
			topN = n
		}
		writeJSON(w, map[string]any{
			"enabled": !s.cfg.PredstatDisabled,
			"report":  s.PredictabilityReport(topN),
		})
	})
	mux.HandleFunc("POST /snapshot", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.CheckpointDir == "" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			writeJSONBody(w, map[string]any{"error": "no checkpoint directory configured (start vpserve with -checkpoint-dir)"})
			return
		}
		var info CheckpointInfo
		var err error
		if r.URL.Query().Get("full") == "1" {
			info, err = s.WriteFullCheckpoint(s.cfg.CheckpointDir)
		} else {
			info, err = s.WriteCheckpoint(s.cfg.CheckpointDir)
		}
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			writeJSONBody(w, map[string]any{"error": err.Error()})
			return
		}
		writeJSON(w, info)
	})
	// The default-mux pprof handlers, re-homed onto this private mux so a
	// vpserve process never exposes profiles anywhere but its admin port.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceFilters parses the shared /trace query parameters (?min_ns=,
// ?n=), answering 400 itself when they are malformed.
func traceFilters(w http.ResponseWriter, r *http.Request) (minNs int64, n int, ok bool) {
	q := r.URL.Query()
	if v := q.Get("min_ns"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil || parsed < 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			writeJSONBody(w, map[string]any{"error": "min_ns must be a non-negative integer"})
			return 0, 0, false
		}
		minNs = parsed
	}
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			writeJSONBody(w, map[string]any{"error": "n must be a non-negative integer"})
			return 0, 0, false
		}
		n = parsed
	}
	return minNs, n, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	writeJSONBody(w, v)
}

// writeJSONBody encodes v without touching headers, for handlers that
// have already written an error status.
func writeJSONBody(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
