package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// startObsServer is startTestServer with a checkpoint directory and full
// health/observability config, for the metrics and health tests.
func startObsServer(t *testing.T, shards int, ckptDir string) *Server {
	t.Helper()
	s, err := New(Config{Shards: shards, CheckpointDir: ckptDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promLine matches one exposition sample: name{labels} value. The label
// block, if present, must be well-formed key="value" pairs.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? [0-9.eE+-]+(Inf)?$`)

// TestMetricsEndpoint drives traffic and a checkpoint through a server
// and asserts GET /metrics exposes every required family in parseable
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	evs, _ := capturedStream(t)
	s := startObsServer(t, 2, t.TempDir())
	if _, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteCheckpoint(s.cfg.CheckpointDir); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}

	// Every non-comment line must be a well-formed sample.
	sc := bufio.NewScanner(strings.NewReader(body))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		if !promLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	if lines == 0 {
		t.Fatal("no samples in /metrics output")
	}

	// The families the acceptance criteria name, plus a value check on
	// the ones traffic must have moved.
	for _, fam := range []string{
		"vp_events_total ",
		"vp_conn_accepted_total ",
		"vp_conn_frames_in_total ",
		"vp_conn_bytes_in_total ",
		"vp_conn_bytes_out_total ",
		"vp_batch_ns_bucket{",
		"vp_batch_ns_count ",
		"vp_batch_events_bucket{",
		"vp_batch_pc_runs_count ",
		"vp_shard_events_total{shard=\"0\"}",
		"vp_shard_events_total{shard=\"1\"}",
		"vp_shard_mailbox_depth{shard=\"0\"}",
		"vp_shard_mailbox_highwater{",
		"vp_shard_unique_pcs{",
		"vp_pred_hits_total{",
		"vp_pred_events_total{",
		"vp_pred_hit_rate_ewma{",
		"vp_checkpoint_total{kind=\"full\"}",
		"vp_checkpoint_total{kind=\"delta\"}",
		"vp_checkpoint_chunks_written_total ",
		"vp_checkpoint_chunks_deduped_total ",
		"vp_checkpoint_dedupe_ratio ",
		"vp_checkpoint_chain_depth ",
		"vp_checkpoint_cut_ns_count ",
		"vp_checkpoint_encode_ns_count ",
		"vp_checkpoint_last_bytes ",
		"vp_uptime_seconds ",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("family %q missing from /metrics", fam)
		}
	}
	for _, want := range []string{
		"vp_checkpoint_total{kind=\"full\"} 1\n",
		"vp_conn_decode_errors_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("expected exact sample %q in /metrics", want)
		}
	}
	// The events counter must equal the driven stream.
	if !strings.Contains(body, "vp_events_total "+strconv.Itoa(len(evs))+"\n") {
		t.Errorf("vp_events_total does not report %d driven events", len(evs))
	}
	// The byte-account gauges carry the figures /stats reports (no
	// traffic runs in between).
	for _, sh := range s.Stats().PerShard {
		for i, ps := range sh.Predictors {
			for _, kv := range []struct {
				kind string
				v    int64
			}{{"used", ps.StateBytes.Used}, {"reserved", ps.StateBytes.Reserved}} {
				want := "vp_state_bytes{kind=\"" + kv.kind + "\",pred=\"" + s.predNames[i] + "\",shard=\"" +
					strconv.Itoa(sh.Shard) + "\"} " + strconv.FormatInt(kv.v, 10) + "\n"
				if kv.v <= 0 || !strings.Contains(body, want) {
					t.Errorf("expected sample %q in /metrics", want)
				}
			}
		}
	}
}

// TestBatchPCRunsCountsDistinctPCs pins what vp_batch_pc_runs measures:
// the same-PC runs the bank grouped a sub-batch into, one per distinct
// PC, not the PC changes in arrival order. One request with PCs a, b, a,
// b on a one-shard server is one sub-batch of two runs.
func TestBatchPCRunsCountsDistinctPCs(t *testing.T) {
	s := startTestServer(t, 1, "")
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]Event{{PC: 4, Value: 1}, {PC: 8, Value: 2}, {PC: 4, Value: 3}, {PC: 8, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	if h := s.metrics.shards[0].batchPCRuns.Snapshot(); h.Count != 1 || h.Sum != 2 {
		t.Fatalf("vp_batch_pc_runs holds %d samples summing to %d, want one sample of 2", h.Count, h.Sum)
	}
}

// TestEventsEndpoint asserts checkpoint stage events land in the trace
// ring and come back over GET /events.
func TestEventsEndpoint(t *testing.T) {
	evs, _ := capturedStream(t)
	s := startObsServer(t, 2, t.TempDir())
	if _, err := DriveEvents(evs[:2000], DriveConfig{Addr: s.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteCheckpoint(s.cfg.CheckpointDir); err != nil {
		t.Fatal(err)
	}
	code, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET /events: status %d", code)
	}
	var out struct {
		Total  uint64           `json:"total"`
		Events []obs.StageEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("GET /events not valid JSON: %v\n%s", err, body)
	}
	kinds := make(map[string]int)
	for _, ev := range out.Events {
		kinds[ev.Kind]++
		if ev.TimeUnixNano == 0 {
			t.Errorf("event %q missing timestamp", ev.Kind)
		}
	}
	if kinds[evCheckpointCut] == 0 || kinds[evCheckpointWritten] == 0 {
		t.Errorf("expected checkpoint_cut and checkpoint_written events, got %v", kinds)
	}
	if out.Total != uint64(len(out.Events)) {
		t.Errorf("total %d != retained %d with no overflow", out.Total, len(out.Events))
	}
}

// TestHealthzDegraded drives the health state machine directly: a
// checkpoint cut pending past its deadline and a saturated mailbox must
// flip /healthz to 503/degraded with both reasons, and clearing them
// restores 200/ok.
func TestHealthzDegraded(t *testing.T) {
	s := startObsServer(t, 2, "")
	url := "http://" + s.HTTPAddr().String() + "/healthz"

	code, body := httpGet(t, url)
	if code != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthy server: status %d body %s", code, body)
	}

	// A cut that "started" past the deadline, plus sustained saturation.
	s.health.cutStart.Store(time.Now().Add(-2 * defaultHealthCheckpointDeadline).UnixNano())
	s.health.sat[1].Store(defaultHealthSaturationIntervals)
	code, body = httpGet(t, url)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded server: status %d body %s", code, body)
	}
	var got struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "degraded" || len(got.Reasons) != 2 {
		t.Fatalf("want degraded with 2 reasons, got %+v", got)
	}
	joined := strings.Join(got.Reasons, "; ")
	if !strings.Contains(joined, "checkpoint cut") || !strings.Contains(joined, "shard 1 mailbox saturated") {
		t.Fatalf("reasons missing expected text: %v", got.Reasons)
	}

	s.health.cutStart.Store(0)
	s.health.sat[1].Store(0)
	if code, _ = httpGet(t, url); code != http.StatusOK {
		t.Fatalf("recovered server: status %d", code)
	}
}

// TestDriveLatencyRecorded asserts the driver measures per-request
// round trips: one sample per sent batch, a sane distribution, and a
// printable summary.
func TestDriveLatencyRecorded(t *testing.T) {
	evs, _ := capturedStream(t)
	s := startTestServer(t, 2, "")
	res, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: 2, BatchSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	wantBatches := uint64(0)
	for cl := 0; cl < 2; cl++ {
		n := 0
		for _, ev := range evs {
			if ShardOf(ev.PC, 2) == cl {
				n++
			}
		}
		wantBatches += uint64((n + 1023) / 1024)
	}
	if res.Latency.Count != wantBatches {
		t.Fatalf("latency samples %d != sent batches %d", res.Latency.Count, wantBatches)
	}
	if res.Latency.Max == 0 {
		t.Error("latency max is zero")
	}
	p50, p99 := res.Latency.Quantile(0.5), res.Latency.Quantile(0.99)
	if p50 > p99 || p99 > float64(res.Latency.Max) {
		t.Errorf("non-monotone quantiles: p50=%v p99=%v max=%d", p50, p99, res.Latency.Max)
	}
	sum := res.LatencySummary()
	for _, part := range []string{"p50=", "p90=", "p99=", "max="} {
		if !strings.Contains(sum, part) {
			t.Errorf("summary %q missing %s", sum, part)
		}
	}
}

// TestStatsIncludesProtocolAndCheckpoints asserts the enriched /stats
// carries the protocol and checkpoint counter blocks.
func TestStatsIncludesProtocolAndCheckpoints(t *testing.T) {
	evs, _ := capturedStream(t)
	s := startObsServer(t, 2, t.TempDir())
	if _, err := DriveEvents(evs[:4000], DriveConfig{Addr: s.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteCheckpoint(s.cfg.CheckpointDir); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats()
	if snap.Protocol.ConnsTotal == 0 || snap.Protocol.FramesIn == 0 || snap.Protocol.BytesIn == 0 {
		t.Errorf("protocol counters not populated: %+v", snap.Protocol)
	}
	if snap.Protocol.ConnsOpen != 0 {
		t.Errorf("conns_open should be 0 after drive, got %d", snap.Protocol.ConnsOpen)
	}
	if snap.Checkpoints.Count != 1 || snap.Checkpoints.LastBytes == 0 || snap.Checkpoints.LastUnixNano == 0 {
		t.Errorf("checkpoint counters not populated: %+v", snap.Checkpoints)
	}
	// And over HTTP, as JSON.
	code, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats: status %d", code)
	}
	if !strings.Contains(body, `"protocol"`) || !strings.Contains(body, `"checkpoints"`) {
		t.Error("stats JSON missing protocol/checkpoints blocks")
	}
	// The batch latency summary the daemons print at shutdown.
	if lat := s.BatchLatency(); lat.Count == 0 {
		t.Error("no shard batch latency recorded after drive")
	}
}

// TestPprofEndpoint asserts the profile index is wired onto the admin
// mux.
func TestPprofEndpoint(t *testing.T) {
	s := startObsServer(t, 1, "")
	code, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/: status %d", code)
	}
}
