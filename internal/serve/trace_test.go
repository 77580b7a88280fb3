package serve

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	otrace "repro/internal/obs/trace"
	"repro/internal/snapshot"
)

// TestTracedUntracedParity pins the tentpole's non-negotiable: tracing
// observes the request path without perturbing it. Driving the same
// stream traced (every request carrying a minted context) and untraced
// must leave byte-identical predictor state and identical tallies.
func TestTracedUntracedParity(t *testing.T) {
	evs, _ := capturedStream(t)
	dir := t.TempDir()

	run := func(traceSample int) (*DriveResult, *snapshot.Snapshot) {
		s := startTestServer(t, 3, "")
		res, err := DriveEvents(evs, DriveConfig{
			Addr:        s.Addr().String(),
			Clients:     2,
			BatchSize:   512,
			TraceSample: traceSample,
		})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := s.WriteCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.ReadFile(ck.Path)
		if err != nil {
			t.Fatal(err)
		}
		return res, snap
	}

	plain, plainSnap := run(0)
	traced, tracedSnap := run(1) // every request traced and head-sampled

	if plain.Events != traced.Events {
		t.Fatalf("events: untraced %d, traced %d", plain.Events, traced.Events)
	}
	if !reflect.DeepEqual(plain.Correct, traced.Correct) {
		t.Errorf("tallies: untraced %v, traced %v", plain.Correct, traced.Correct)
	}
	if !reflect.DeepEqual(plainSnap.Shards, tracedSnap.Shards) {
		t.Error("predictor state differs between traced and untraced runs")
	}
	if len(traced.SlowTraces) == 0 {
		t.Error("traced run reported no slow traces")
	}
}

// TestTraceRetentionEndToEnd drives traced requests into a server whose
// slow threshold floor is 1ns — every traced request finishes "slow" —
// and checks the flight recorder serves them over GET /trace and
// GET /trace/perfetto with the conn/enqueue/shard/bank stages present.
func TestTraceRetentionEndToEnd(t *testing.T) {
	evs, _ := capturedStream(t)
	s, err := New(Config{Shards: 2, TraceSlowNs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := DriveEvents(evs[:4096], DriveConfig{
		Addr: s.Addr().String(), Clients: 1, BatchSize: 512, TraceSample: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if s.Tracer().Promoted() == 0 {
		t.Fatal("no traces promoted with a 1ns slow threshold")
	}

	h := s.httpHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /trace = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		SlowNs   int64             `json:"slow_ns"`
		Promoted uint64            `json:"promoted"`
		Traces   []otrace.Retained `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET /trace is not JSON: %v", err)
	}
	if body.Promoted == 0 || len(body.Traces) == 0 {
		t.Fatalf("GET /trace = %+v, want retained traces", body)
	}
	stages := map[string]bool{}
	for _, tr := range body.Traces {
		if tr.Reason != "slow" && tr.Reason != "head" {
			t.Errorf("trace %s retained for %q, want slow or head", tr.TraceID, tr.Reason)
		}
		for _, sp := range tr.Spans {
			stages[sp.StageName] = true
		}
	}
	for _, want := range []string{"conn", "enqueue", "shard", "bank"} {
		if !stages[want] {
			t.Errorf("no retained trace has a %q span (got %v)", want, stages)
		}
	}

	// ?min_ns= filters and ?n= caps.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?n=1&min_ns=0", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body.Traces) > 1 {
		t.Fatalf("GET /trace?n=1: err=%v traces=%d", err, len(body.Traces))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?min_ns=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("malformed min_ns = %d, want 400", rec.Code)
	}

	// Perfetto export: valid chrome trace-event JSON with span slices.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/perfetto", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /trace/perfetto = %d", rec.Code)
	}
	var pf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pf); err != nil {
		t.Fatalf("perfetto export is not JSON: %v", err)
	}
	slices := 0
	for _, ev := range pf.TraceEvents {
		if ev.Ph == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("perfetto export has no span slices")
	}
}

// TestTraceHotPathZeroAlloc gates the acceptance criterion: a traced
// request that is NOT promoted (fast, healthy, no head-sample flag) must
// cost zero allocations in steady state, same bar as the untraced path.
// testing.AllocsPerRun reads the process-wide malloc count, so this
// covers the whole round trip: the client's send and receive and the
// server's decode, dispatch, shard step, span recording and reply. The
// test additionally proves no promotion — the only allocating trace
// path — happened while requests carried contexts.
func TestTraceHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A huge slow floor means no traced request ever qualifies as slow.
	s, err := New(Config{Shards: 2, TraceSlowNs: int64(1) << 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// headEvery math.MaxInt-ish so no request is head-sampled.
	minter := otrace.NewMinter(1, 1<<40)
	minter.Next() // consume the head-sampled first context

	const batch = 512
	evs := make([]Event, batch)
	fill := func(base int) {
		for j := range evs {
			evs[j] = Event{PC: uint64((base + j) % 64 * 4), Value: uint64((base + j) % 7)}
		}
	}
	var res BatchResult
	roundTrip := func(base int) {
		fill(base)
		if err := c.SendTraced(evs, minter.Next()); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.RecvInto(&res); err != nil {
			t.Fatal(err)
		}
		if res.Events != batch {
			t.Fatalf("server tallied %d events, want %d", res.Events, batch)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip(i * batch)
	}
	i := 8
	allocs := testing.AllocsPerRun(50, func() {
		roundTrip(i * batch)
		i++
	})
	if allocs != 0 {
		t.Fatalf("traced round trip allocates %.1f allocs in steady state", allocs)
	}
	if n := s.Tracer().Promoted(); n != 0 {
		t.Fatalf("%d traces promoted; the hot path should never promote", n)
	}
}
