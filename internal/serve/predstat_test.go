package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predstat"
	"repro/internal/snapshot"
)

// TestEventsEndpointQueryParams pins the /events query surface: ?kind=
// filters by event kind, ?n= keeps only the most recent N (oldest first),
// and a malformed n is a 400.
func TestEventsEndpointQueryParams(t *testing.T) {
	evs, _ := capturedStream(t)
	s := startObsServer(t, 2, t.TempDir())
	if _, err := DriveEvents(evs[:2000], DriveConfig{Addr: s.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	// Two checkpoints give at least two cut and two written events.
	for i := 0; i < 2; i++ {
		if _, err := s.WriteCheckpoint(s.cfg.CheckpointDir); err != nil {
			t.Fatal(err)
		}
	}
	base := "http://" + s.HTTPAddr().String() + "/events"
	get := func(url string) (uint64, []obs.StageEvent) {
		t.Helper()
		code, body := httpGet(t, url)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", url, code, body)
		}
		var out struct {
			Total  uint64           `json:"total"`
			Events []obs.StageEvent `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("GET %s not valid JSON: %v", url, err)
		}
		return out.Total, out.Events
	}

	_, all := get(base)
	if len(all) < 4 {
		t.Fatalf("expected at least 4 ring events, got %d", len(all))
	}
	_, cuts := get(base + "?kind=" + evCheckpointCut)
	if len(cuts) != 2 {
		t.Fatalf("?kind=%s returned %d events, want 2", evCheckpointCut, len(cuts))
	}
	for _, ev := range cuts {
		if ev.Kind != evCheckpointCut {
			t.Fatalf("filter leaked kind %q", ev.Kind)
		}
	}
	_, last := get(base + "?n=1")
	if len(last) != 1 {
		t.Fatalf("?n=1 returned %d events", len(last))
	}
	if want := all[len(all)-1]; last[0].Kind != want.Kind || last[0].TimeUnixNano != want.TimeUnixNano {
		t.Fatalf("?n=1 returned %+v, want most recent %+v", last[0], want)
	}
	// Combined: most recent single checkpoint_written event.
	_, comb := get(base + "?kind=" + evCheckpointWritten + "&n=1")
	if len(comb) != 1 || comb[0].Kind != evCheckpointWritten {
		t.Fatalf("combined filter returned %+v", comb)
	}
	// ?n=0 is valid and empties the list; garbage is a 400.
	if _, none := get(base + "?n=0"); len(none) != 0 {
		t.Fatal("?n=0 should return no events")
	}
	if code, _ := httpGet(t, base+"?n=-3"); code != http.StatusBadRequest {
		t.Fatalf("?n=-3: status %d, want 400", code)
	}
	if code, _ := httpGet(t, base+"?n=abc"); code != http.StatusBadRequest {
		t.Fatalf("?n=abc: status %d, want 400", code)
	}
}

// predictabilityBody mirrors the /predictability JSON envelope.
type predictabilityBody struct {
	Enabled bool            `json:"enabled"`
	Report  predstat.Report `json:"report"`
}

// TestPredictabilityEndpoint drives real traffic through a sharded server
// and checks the merged report: full event coverage, per-class tallies
// that add up, ranked PCs with sane ceilings, and per-predictor gaps.
func TestPredictabilityEndpoint(t *testing.T) {
	evs, _ := capturedStream(t)
	s, err := New(Config{
		Shards:   2,
		Predstat: predstat.Config{MinEvents: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := DriveEvents(evs, DriveConfig{Addr: s.Addr().String(), Clients: 2}); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/predictability?n=5")
	if code != http.StatusOK {
		t.Fatalf("GET /predictability: status %d\n%s", code, body)
	}
	var out predictabilityBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, body)
	}
	if !out.Enabled {
		t.Fatal("predictability should be enabled by default")
	}
	rep := out.Report
	if rep.Events != uint64(len(evs)) {
		t.Errorf("report covers %d events, drove %d", rep.Events, len(evs))
	}
	if rep.PCs == 0 || rep.Reported == 0 {
		t.Fatalf("no PCs reported: %+v", rep)
	}
	var classSum uint64
	for _, n := range rep.ClassEvents {
		classSum += n
	}
	if classSum != rep.Events {
		t.Errorf("class tallies sum to %d, want %d", classSum, rep.Events)
	}
	if len(rep.Hardest) == 0 || len(rep.Hardest) > 5 || len(rep.Easiest) == 0 {
		t.Fatalf("bad rankings: hardest %d easiest %d", len(rep.Hardest), len(rep.Easiest))
	}
	for _, pr := range append(append([]predstat.PCReport(nil), rep.Hardest...), rep.Easiest...) {
		if pr.Ceiling < 0 || pr.Ceiling > 1 || pr.BestAccuracy < 0 || pr.BestAccuracy > 1 {
			t.Errorf("pc %#x out-of-range stats: %+v", pr.PC, pr)
		}
		if pr.Class == "" || pr.BestPred == "" {
			t.Errorf("pc %#x missing labels: %+v", pr.PC, pr)
		}
		if pr.Events < 8 {
			t.Errorf("pc %#x below MinEvents reported", pr.PC)
		}
	}
	// Hardest is sorted by entropy descending, easiest ascending.
	for i := 1; i < len(rep.Hardest); i++ {
		if rep.Hardest[i].EntropyBits > rep.Hardest[i-1].EntropyBits {
			t.Error("hardest not sorted by entropy desc")
		}
	}
	for i := 1; i < len(rep.Easiest); i++ {
		if rep.Easiest[i].EntropyBits < rep.Easiest[i-1].EntropyBits {
			t.Error("easiest not sorted by entropy asc")
		}
	}
	if len(rep.GapByPred) != len(s.Predictors()) {
		t.Fatalf("gap attribution covers %d predictors, want %d", len(rep.GapByPred), len(s.Predictors()))
	}
	for _, g := range rep.GapByPred {
		if g.Events == 0 {
			t.Errorf("predictor %s has no attributed events", g.Name)
		}
	}

	// The scrape-derived families render from the same live trackers.
	code, body = httpGet(t, "http://"+s.HTTPAddr().String()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	for _, fam := range []string{
		"vp_pc_entropy_bits_bucket{",
		"vp_pc_entropy_bits_count ",
		`vp_seqclass_events{class="C"}`,
		`vp_seqclass_events{class="NS"}`,
		`vp_pred_ceiling_gap{pred="l"}`,
		`vp_pred_ceiling_gap{pred="fcm3"}`,
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("family %q missing from /metrics", fam)
		}
	}
	// The entropy histogram must hold one sample per reported PC.
	want := "vp_pc_entropy_bits_count " + jsonNumber(uint64(rep.Reported))
	if !strings.Contains(body, want+"\n") {
		t.Errorf("expected %q in /metrics (reported=%d)", want, rep.Reported)
	}
}

func jsonNumber(n uint64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestPredictabilityDisabled: with the subsystem off, the endpoint says
// so, the bank carries no observer, and nothing breaks.
func TestPredictabilityDisabled(t *testing.T) {
	evs, _ := capturedStream(t)
	s, err := New(Config{Shards: 2, PredstatDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for _, sh := range s.shards {
		if sh.bank.Observer() != nil {
			t.Fatal("disabled server attached an observer")
		}
	}
	if _, err := DriveEvents(evs[:2000], DriveConfig{Addr: s.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	code, body := httpGet(t, "http://"+s.HTTPAddr().String()+"/predictability")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var out predictabilityBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Enabled || out.Report.Events != 0 {
		t.Fatalf("disabled server reported: %+v", out)
	}
}

// pcHits is a run observer that tallies each PC's events and each
// predictor's hits at it.
type pcHits struct {
	events map[uint64]uint64
	hits   map[uint64][]uint64
}

func (o *pcHits) Bind([]core.Predictor) {}

func (o *pcHits) ObserveRun(pc uint64, values []uint64, hits []uint64) {
	o.events[pc] += uint64(len(values))
	if o.hits[pc] == nil {
		o.hits[pc] = make([]uint64, len(hits))
	}
	for i, h := range hits {
		o.hits[pc][i] += h
	}
}

// TestPredictabilityAfterRestore: a warm restart restarts the trackers'
// live counters, but the FCMs carry the restored history. A server
// restored from a checkpoint and then fed more traffic must report, per
// PC, an order-3 ceiling equal to a map reference over the history plus
// the live events, over that many top-order events, while its events and
// best accuracy count only the live traffic (an offline replay of the
// remainder through the checkpoint's predictors gives the reference).
// ceil_order lists the orders the bank has an FCM for.
func TestPredictabilityAfterRestore(t *testing.T) {
	evs, _ := capturedStream(t)
	cut := len(evs) * 3 / 5
	a, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	driveAll(t, a, evs[:cut], 2)
	ck, err := a.WriteCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	snap, err := snapshot.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Shards: 2, Predstat: predstat.Config{MinEvents: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	driveAll(t, s, evs[cut:], 2)
	rep := s.PredictabilityReport(len(evs))

	// Offline references: the order-3 counts over every event, and each
	// predictor's hits over the live events, stepped through the
	// checkpoint's own predictors.
	type ctx struct{ pc, a, b, c uint64 }
	hist := map[uint64][]uint64{}
	counts := map[ctx]map[uint64]uint64{}
	for _, ev := range evs {
		if h := hist[ev.PC]; len(h) >= 3 {
			k := ctx{ev.PC, h[len(h)-3], h[len(h)-2], h[len(h)-1]}
			if counts[k] == nil {
				counts[k] = map[uint64]uint64{}
			}
			counts[k][ev.Value]++
		}
		hist[ev.PC] = append(hist[ev.PC], ev.Value)
	}
	top, total := map[uint64]uint64{}, map[uint64]uint64{}
	for k, vs := range counts {
		mx := uint64(0)
		for _, n := range vs {
			mx = max(mx, n)
			total[k.pc] += n
		}
		top[k.pc] += mx
	}
	l, _, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := l.Take()
	if err != nil {
		t.Fatal(err)
	}
	live := &pcHits{events: map[uint64]uint64{}, hits: map[uint64][]uint64{}}
	banks := make([]*core.Bank, len(preds))
	for i, ps := range preds {
		banks[i] = core.NewBank(ps...)
		banks[i].SetObserver(live)
	}
	for _, ev := range evs[cut:] {
		banks[ShardOf(ev.PC, len(banks))].StepBatch([]uint64{ev.PC}, []uint64{ev.Value})
	}

	if rep.Events != uint64(len(evs)-cut) || rep.Reported != len(live.events) || len(rep.Hardest) != rep.Reported {
		t.Fatalf("report covers %d events and %d PCs (%d ranked), want %d and %d",
			rep.Events, rep.Reported, len(rep.Hardest), len(evs)-cut, len(live.events))
	}
	for _, pr := range rep.Hardest {
		if pr.Events != live.events[pr.PC] {
			t.Errorf("pc %#x: %d events, %d live", pr.PC, pr.Events, live.events[pr.PC])
		}
		best := 0.0
		for _, h := range live.hits[pr.PC] {
			best = max(best, float64(h)/float64(live.events[pr.PC]))
		}
		if math.Abs(pr.BestAccuracy-best) > 1e-9 {
			t.Errorf("pc %#x: best accuracy %.6f, live replay %.6f", pr.PC, pr.BestAccuracy, best)
		}
		if n := uint64(len(hist[pr.PC])); pr.CeilEvents != n-min(n, 3) || total[pr.PC] != pr.CeilEvents {
			t.Errorf("pc %#x: ceilings over %d events, %d values of history and live traffic", pr.PC, pr.CeilEvents, n)
		}
		if pr.CeilEvents == 0 {
			continue
		}
		if want := float64(top[pr.PC]) / float64(total[pr.PC]); math.Abs(pr.CeilOrder[3]-want) > 1e-9 {
			t.Errorf("pc %#x: order-3 ceiling %.9f, map reference %.9f", pr.PC, pr.CeilOrder[3], want)
		}
		_, ok1 := pr.CeilOrder[1]
		_, ok2 := pr.CeilOrder[2]
		if !ok1 || !ok2 || len(pr.CeilOrder) != 3 {
			t.Errorf("pc %#x: ceilings for orders %v, want 1, 2 and 3", pr.PC, pr.CeilOrder)
		}
	}
}
