package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// captureEvents runs the compress workload once (package-wide, it is the
// slow part) and exposes the identical stream as serve events and as an
// encoded trace file.
var captureOnce = struct {
	sync.Once
	events []Event
	traced []byte
	err    error
}{}

func capturedStream(t *testing.T) ([]Event, []byte) {
	t.Helper()
	captureOnce.Do(func() {
		w := bench.Compress()
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf, trace.Header{Benchmark: w.Name, Opt: 2, Scale: 1})
		if err != nil {
			captureOnce.err = err
			return
		}
		_, err = w.Run(bench.RunConfig{
			Opt:       2,
			MaxEvents: 20_000,
			OnValues: func(evs []sim.ValueEvent) {
				for _, ev := range evs {
					captureOnce.events = append(captureOnce.events, Event{PC: ev.PC, Value: ev.Value})
					if werr := tw.Write(trace.FromSim(ev)); werr != nil && captureOnce.err == nil {
						captureOnce.err = werr
					}
				}
			},
		})
		if err != nil {
			captureOnce.err = err
			return
		}
		if err := tw.Close(); err != nil {
			captureOnce.err = err
			return
		}
		captureOnce.traced = buf.Bytes()
	})
	if captureOnce.err != nil {
		t.Fatal(captureOnce.err)
	}
	return captureOnce.events, captureOnce.traced
}

// offlineReplay applies vptrace replay's exact loop: predict, observe,
// update, per predictor over the full stream.
func offlineReplay(t *testing.T, names string, evs []Event) ([]string, []uint64) {
	t.Helper()
	facs, err := core.ParseFactories(names)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]core.Predictor, len(facs))
	labels := make([]string, len(facs))
	for i, f := range facs {
		preds[i] = f.New()
		labels[i] = f.Name
	}
	correct := make([]uint64, len(preds))
	for _, ev := range evs {
		core.StepBank(preds, correct, ev.PC, ev.Value)
	}
	return labels, correct
}

func startTestServer(t *testing.T, shards int, httpAddr string) *Server {
	t.Helper()
	s, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", httpAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestParityWithOfflineReplay is the subsystem's acceptance test: driving
// a captured stream through a running server — at several shard counts and
// client concurrencies — must report byte-identical per-predictor tallies
// to the offline replay loop.
func TestParityWithOfflineReplay(t *testing.T) {
	evs, _ := capturedStream(t)
	_, want := offlineReplay(t, "l,s2,fcm1,fcm2,fcm3", evs)
	for _, tc := range []struct{ shards, clients int }{
		{1, 1}, {1, 4}, {3, 1}, {4, 4},
	} {
		t.Run(fmt.Sprintf("shards=%d/clients=%d", tc.shards, tc.clients), func(t *testing.T) {
			s := startTestServer(t, tc.shards, "")
			res, err := DriveEvents(evs, DriveConfig{
				Addr:      s.Addr().String(),
				Clients:   tc.clients,
				BatchSize: 512,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != uint64(len(evs)) {
				t.Fatalf("drove %d events, want %d", res.Events, len(evs))
			}
			for i, name := range res.Predictors {
				if res.Correct[i] != want[i] {
					t.Errorf("%s: online correct = %d, offline = %d", name, res.Correct[i], want[i])
				}
			}
		})
	}
}

// TestTraceDriveParity drives the encoded .vpt bytes through DriveTrace —
// the vptrace drive path — and checks the same parity.
func TestTraceDriveParity(t *testing.T) {
	evs, traced := capturedStream(t)
	_, want := offlineReplay(t, "l,s2,fcm1,fcm2,fcm3", evs)
	s := startTestServer(t, 2, "")
	tr, err := trace.NewReader(bytes.NewReader(traced))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DriveTrace(tr, DriveConfig{Addr: s.Addr().String(), Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(len(evs)) {
		t.Fatalf("drove %d events, want %d", res.Events, len(evs))
	}
	for i, name := range res.Predictors {
		if res.Correct[i] != want[i] {
			t.Errorf("%s: online correct = %d, offline = %d", name, res.Correct[i], want[i])
		}
	}
}

func TestStatsAggregation(t *testing.T) {
	evs, _ := capturedStream(t)
	s := startTestServer(t, 3, "")
	if _, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: 2}); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats()
	if snap.Events != uint64(len(evs)) {
		t.Errorf("stats events = %d, want %d", snap.Events, len(evs))
	}
	uniq := make(map[uint64]bool)
	for _, ev := range evs {
		uniq[ev.PC] = true
	}
	if snap.UniquePCs != len(uniq) {
		t.Errorf("stats unique PCs = %d, want %d", snap.UniquePCs, len(uniq))
	}
	var perShard uint64
	for _, st := range snap.PerShard {
		perShard += st.Events
	}
	if perShard != snap.Events {
		t.Errorf("per-shard events sum %d != aggregate %d", perShard, snap.Events)
	}
	for _, ps := range snap.Predictors {
		if ps.Total != uint64(len(evs)) {
			t.Errorf("%s: total = %d, want %d", ps.Name, ps.Total, len(evs))
		}
		if ps.StaticPCs != len(uniq) {
			t.Errorf("%s: static PCs = %d, want %d", ps.Name, ps.StaticPCs, len(uniq))
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := startTestServer(t, 2, "127.0.0.1:0")
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]Event{{PC: 8, Value: 1}, {PC: 8, Value: 1}}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + s.HTTPAddr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status string   `json:"status"`
		Shards int      `json:"shards"`
		Preds  []string `json:"predictors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Shards != 2 || len(health.Preds) != 5 {
		t.Fatalf("healthz = %+v", health)
	}

	resp2, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Events != 2 || snap.UniquePCs != 1 || len(snap.PerShard) != 2 {
		t.Fatalf("stats = %+v", snap)
	}
	// Second occurrence of (8,1): last-value must have predicted it.
	if snap.Predictors[0].Name != "l" || snap.Predictors[0].Correct != 1 {
		t.Fatalf("l stats = %+v", snap.Predictors[0])
	}
}

func TestPipelinedRequests(t *testing.T) {
	s := startTestServer(t, 2, "")
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const batches = 100
	for b := 0; b < batches; b++ {
		evs := make([]Event, 50)
		for i := range evs {
			evs[i] = Event{PC: uint64(i * 4), Value: uint64(b)}
		}
		if err := c.Send(evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for b := 0; b < batches; b++ {
		r, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		total += r.Events
	}
	if total != batches*50 {
		t.Fatalf("tallied %d events", total)
	}
}

func TestEmptyBatch(t *testing.T) {
	s := startTestServer(t, 2, "")
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Do(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events != 0 {
		t.Fatalf("empty batch tallied %d events", r.Events)
	}
}

func TestHelloReportsPriorEvents(t *testing.T) {
	s := startTestServer(t, 2, "")
	evs := []Event{{PC: 4, Value: 1}, {PC: 8, Value: 2}, {PC: 12, Value: 3}}
	res, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerPriorEvents != 0 {
		t.Fatalf("first drive saw %d prior events", res.ServerPriorEvents)
	}
	res2, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ServerPriorEvents != uint64(len(evs)) {
		t.Fatalf("second drive saw %d prior events, want %d", res2.ServerPriorEvents, len(evs))
	}
}

func TestMalformedRequestReportsError(t *testing.T) {
	s := startTestServer(t, 1, "")
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Hand-craft a frame with an unknown message type.
	c.sbuf = append(c.sbuf[:0], 0x7F)
	if err := writeFrame(c.bw, c.sbuf); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	_, err = c.Recv()
	if err == nil || err == io.EOF {
		t.Fatalf("expected protocol error, got %v", err)
	}
}

func TestCloseAndStatsWithoutStart(t *testing.T) {
	// The natural defer-Close-around-Start pattern must survive a Start
	// that never ran (or failed): no panic, no hang.
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if snap := s.Stats(); snap.Events != 0 {
		t.Fatalf("unstarted Stats = %+v", snap)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on unstarted server: %v", err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("double Close must error")
	}
}

func TestStartFailureLeavesServerClosable(t *testing.T) {
	a, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(a.Addr().String(), ""); err == nil {
		t.Fatal("Start on an in-use port must fail")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close after failed Start: %v", err)
	}
}

func TestServerCloseWithActiveClients(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do([]Event{{PC: 4, Value: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.ln.Close(); err == nil {
		t.Log("listener closed twice without error (ok)")
	}
}
