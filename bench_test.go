// Benchmarks: one testing.B per paper artifact, regenerating each table
// and figure at a reduced event budget. Run with:
//
//	go test -bench=. -benchmem
//
// Per-op metrics report events/op so throughput is comparable across
// artifacts. For the full-size artifacts use cmd/vpredict.
package repro_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predstat"
	"repro/internal/seqclass"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// benchEvents is the per-benchmark event budget used by the testing.B
// harness; small enough for iteration, large enough to keep shapes.
const benchEvents = 100_000

func runExperiment(b *testing.B, id string, benchmarks ...string) {
	b.Helper()
	cfg := experiments.Config{Events: benchEvents, Benchmarks: benchmarks}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunOne(io.Discard, id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// fastSubset keeps the per-iteration cost of suite-backed benchmarks
// manageable: one loop-heavy and one irregular workload.
var fastSubset = []string{"compress", "m88ksim"}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", fastSubset...) }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", fastSubset...) }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", fastSubset...) }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3", fastSubset...) }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4", fastSubset...) }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5", fastSubset...) }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6", fastSubset...) }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7", fastSubset...) }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8", fastSubset...) }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9", fastSubset...) }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10", fastSubset...) }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkCeil(b *testing.B)   { runExperiment(b, "ceil", fastSubset...) }

// --- component micro-benchmarks -------------------------------------------------

// benchPredictor measures raw predictor throughput on a mixed stream.
func benchPredictor(b *testing.B, p core.Predictor) {
	b.Helper()
	// 64 static instructions: strides, constants and period-4 repeats.
	rns := seqclass.NonStridePeriod(5, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 64)
		var v uint64
		switch pc % 3 {
		case 0:
			v = uint64(i) * 8
		case 1:
			v = 42
		default:
			v = rns[i%4]
		}
		pred, ok := p.Predict(pc)
		_ = pred
		_ = ok
		p.Update(pc, v)
	}
}

func BenchmarkPredictLastValue(b *testing.B) { benchPredictor(b, core.NewLastValue()) }
func BenchmarkPredictStride2D(b *testing.B)  { benchPredictor(b, core.NewStride2Delta()) }
func BenchmarkPredictFCM1(b *testing.B)      { benchPredictor(b, core.NewFCM(1)) }
func BenchmarkPredictFCM3(b *testing.B)      { benchPredictor(b, core.NewFCM(3)) }

// BenchmarkPredictFCM8 is the high-order row: Figure 11 sweeps orders up
// to 8, where the per-event context work (one rolling-signature table per
// order) is at its deepest.
func BenchmarkPredictFCM8(b *testing.B) { benchPredictor(b, core.NewFCM(8)) }

// BenchmarkPredictFCM3Steady measures the steady state the online service
// lives in: strictly periodic values over a fixed PC set, fully warmed
// before the timer starts, so no PC, context or value is ever new. The CI
// bench smoke asserts 0 allocs/op here — any per-event allocation that
// sneaks back into the predict/update path fails the gate.
func BenchmarkPredictFCM3Steady(b *testing.B) {
	p := core.NewFCM(3)
	rns := seqclass.NonStridePeriod(5, 4)
	step := func(i int) {
		pc := uint64(i % 64)
		v := rns[(uint64(i/64)+pc)%4] // period-4 value sequence per PC
		pred, ok := p.Predict(pc)
		_ = pred
		_ = ok
		p.Update(pc, v)
	}
	warm := 64 * 16 // several full periods: every context exists
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
}

// --- bank batch-path benchmarks -------------------------------------------------

// bankBenchStream builds the fcm3 mixed stream (strides, constants,
// period-4 repeats over 64 PCs) as SoA batches for the batch-vs-per-event
// comparison. The stream is replayed cyclically, so after one warm pass
// every PC, context and value exists and both paths run in steady state.
var bankStreamOnce struct {
	pcs, vals []uint64
}

const bankBenchBatch = 4096

func bankBenchStream() (pcs, vals []uint64) {
	if bankStreamOnce.pcs != nil {
		return bankStreamOnce.pcs, bankStreamOnce.vals
	}
	rns := seqclass.NonStridePeriod(5, 4)
	const n = 16 * bankBenchBatch
	pcs = make([]uint64, n)
	vals = make([]uint64, n)
	for i := 0; i < n; i++ {
		pc := uint64(i % 64)
		pcs[i] = pc
		switch pc % 3 {
		case 0:
			vals[i] = uint64(i) * 8
		case 1:
			vals[i] = 42
		default:
			vals[i] = rns[i%4]
		}
	}
	bankStreamOnce.pcs, bankStreamOnce.vals = pcs, vals
	return pcs, vals
}

// BenchmarkBankStepBatch measures one 4096-event batch through
// Bank.StepBatch on a warmed fcm3 bank: the grouped, kernel-fused hot
// path the engine workers, serve shards and warm replay all share. CI
// gates allocs/op == 0 here, and the ns/op ratio against
// BenchmarkBankStepEvents is the batch path's speedup over per-event
// stepping (the acceptance bar is ≥1.5×).
func BenchmarkBankStepBatch(b *testing.B) {
	pcs, vals := bankBenchStream()
	nb := len(pcs) / bankBenchBatch
	bank := core.NewBank(core.NewFCM(3))
	// Two warm passes: the second crosses the cyclic wrap seam, so the
	// contexts spanning end-of-stream → start-of-stream exist too and the
	// timed loop is genuinely steady-state.
	for g := 0; g < 2*nb; g++ {
		off := (g % nb) * bankBenchBatch
		bank.StepBatch(pcs[off:off+bankBenchBatch], vals[off:off+bankBenchBatch])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % nb) * bankBenchBatch
		bank.StepBatch(pcs[off:off+bankBenchBatch], vals[off:off+bankBenchBatch])
	}
	b.ReportMetric(bankBenchBatch, "events/op")
}

// BenchmarkBankStepBatchObserved is BenchmarkBankStepBatch with a
// predictability tracker attached through the bank's run-observer hook —
// the configuration every vpserve shard runs by default. CI gates
// allocs/op == 0 here too; the ns/op delta against BenchmarkBankStepBatch
// prices online predictability analytics (entropy tables at four orders,
// ceilings, window upkeep), payable per shard, removable with -predstat
// false. The plain benchmark itself must stay within 10% of its history:
// a detached observer is one nil check.
func BenchmarkBankStepBatchObserved(b *testing.B) {
	pcs, vals := bankBenchStream()
	nb := len(pcs) / bankBenchBatch
	bank := core.NewBank(core.NewFCM(3))
	tr := predstat.NewTracker(predstat.Config{PredNames: []string{"fcm3"}})
	bank.SetObserver(tr)
	for g := 0; g < 2*nb; g++ {
		off := (g % nb) * bankBenchBatch
		bank.StepBatch(pcs[off:off+bankBenchBatch], vals[off:off+bankBenchBatch])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % nb) * bankBenchBatch
		bank.StepBatch(pcs[off:off+bankBenchBatch], vals[off:off+bankBenchBatch])
	}
	b.ReportMetric(bankBenchBatch, "events/op")
}

// BenchmarkBankStepEvents is the per-event reference for the same stream
// and predictor: one core.StepBank call per event, one batch's worth of
// events per op so ns/op is directly comparable to BenchmarkBankStepBatch.
func BenchmarkBankStepEvents(b *testing.B) {
	pcs, vals := bankBenchStream()
	nb := len(pcs) / bankBenchBatch
	ps := []core.Predictor{core.NewFCM(3)}
	correct := make([]uint64, 1)
	for g := 0; g < 2; g++ { // two warm passes, incl. the wrap seam
		for j := 0; j < len(pcs); j++ {
			core.StepBank(ps, correct, pcs[j], vals[j])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i % nb) * bankBenchBatch
		for j := off; j < off+bankBenchBatch; j++ {
			core.StepBank(ps, correct, pcs[j], vals[j])
		}
	}
	b.ReportMetric(bankBenchBatch, "events/op")
}

// BenchmarkSimulator measures raw simulation speed (instructions/op).
func BenchmarkSimulator(b *testing.B) {
	w := bench.Compress()
	prog, err := w.Compile(bench.RefOpt)
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(1)
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(prog, input, sim.Config{MaxInstr: 2_000_000})
		if err != nil && res == nil {
			b.Fatal(err)
		}
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instrs/op")
}

// BenchmarkCompiler measures end-to-end MiniC compile time for the
// largest workload source.
func BenchmarkCompiler(b *testing.B) {
	w := bench.Xlisp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Compile(2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine benchmarks ----------------------------------------------------------

// engineSubset has four benchmarks so the Workers4 variant actually gets
// four-way benchmark-level parallelism (RunSuite caps workers at the
// workload count).
var engineSubset = []string{"compress", "m88ksim", "perl", "xlisp"}

// benchEngineSuite measures the shared suite pass through internal/engine
// at a given worker count (events/op; workers=1 is the serial reference
// path, so the serial-vs-parallel ratio is the engine's speedup).
func benchEngineSuite(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		suite, err := engine.RunSuite(engine.Config{
			Analysis: analysis.Config{Events: benchEvents, Benchmarks: engineSubset},
			Workers:  workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range suite.Results {
			events += r.Events
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

func BenchmarkEngineSuiteSerial(b *testing.B)   { benchEngineSuite(b, 1) }
func BenchmarkEngineSuiteWorkers2(b *testing.B) { benchEngineSuite(b, 2) }
func BenchmarkEngineSuiteWorkers4(b *testing.B) { benchEngineSuite(b, 4) }

// benchDelivery measures raw event-delivery overhead in the simulator:
// per-event callback vs batched delivery (events/op on identical work).
func benchDelivery(b *testing.B, batchSize int) {
	b.Helper()
	w := bench.Compress()
	prog, err := w.Compile(bench.RefOpt)
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(1)
	cfg := sim.Config{MaxInstr: 1 << 62, MaxEvents: benchEvents}
	var events uint64
	if batchSize == 0 {
		cfg.OnValue = func(ev sim.ValueEvent) { events++ }
	} else {
		cfg.BatchSize = batchSize
		cfg.OnValues = func(evs []sim.ValueEvent) { events += uint64(len(evs)) }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = 0
		if _, err := sim.Run(prog, input, cfg); err != nil && !errors.Is(err, sim.ErrBudget) {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events/op")
}

func BenchmarkDeliveryPerEvent(b *testing.B)    { benchDelivery(b, 0) }
func BenchmarkDeliveryBatched(b *testing.B)     { benchDelivery(b, sim.DefaultBatchSize) }
func BenchmarkDeliveryBatchedTiny(b *testing.B) { benchDelivery(b, 64) }

// BenchmarkEngineFanout measures one benchmark through the full fan-out
// (5 predictor banks + merger) against BenchmarkFullPass's serial
// all-collector loop below.
func BenchmarkEngineFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := engine.RunBenchmark(bench.M88ksim(), analysis.Config{Events: benchEvents}, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchEvents, "events/op")
}

// --- serve benchmarks -----------------------------------------------------------

// serveBenchStream builds a synthetic mixed stream (strides, constants,
// period-4 repeats over 512 PCs) shared by the serve benchmarks.
var serveStreamOnce struct {
	events []serve.Event
}

func serveBenchStream() []serve.Event {
	if serveStreamOnce.events != nil {
		return serveStreamOnce.events
	}
	rns := seqclass.NonStridePeriod(5, 4)
	const n = 200_000
	evs := make([]serve.Event, n)
	for i := 0; i < n; i++ {
		pc := uint64((i % 512) * 4)
		var v uint64
		switch pc % 3 {
		case 0:
			v = uint64(i) * 8
		case 1:
			v = 42
		default:
			v = rns[i%4]
		}
		evs[i] = serve.Event{PC: pc, Value: v}
	}
	serveStreamOnce.events = evs
	return evs
}

// benchServe measures end-to-end service throughput — TCP round trips,
// request bucketing and the full standard predictor bank — at a given
// shard count, with four concurrent client connections. events/op is
// fixed, so ns/op across variants is the shard-scaling curve.
func benchServe(b *testing.B, shards int) {
	b.Helper()
	evs := serveBenchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := serve.New(serve.Config{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0", ""); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := serve.DriveEvents(evs, serve.DriveConfig{
			Addr:    s.Addr().String(),
			Clients: 4,
		})
		b.StopTimer()
		s.Close()
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		if res.Events != uint64(len(evs)) {
			b.Fatalf("drove %d of %d events", res.Events, len(evs))
		}
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

func BenchmarkServe1Shard(b *testing.B)  { benchServe(b, 1) }
func BenchmarkServeShards2(b *testing.B) { benchServe(b, 2) }
func BenchmarkServeShards4(b *testing.B) { benchServe(b, 4) }

// --- snapshot benchmarks --------------------------------------------------------

// trainedSnapshot builds the checkpoint image of the standard predictor
// bank after learning the serve bench stream, through the real capture
// path: a 4-shard server drives the stream and writes a checkpoint.
// Cached so the encode/decode/restore benchmarks all measure the same
// state.
var trainedSnapshotOnce struct {
	snap *snapshot.Snapshot
	data []byte
}

func trainedSnapshot(tb testing.TB) (*snapshot.Snapshot, []byte) {
	if trainedSnapshotOnce.snap != nil {
		return trainedSnapshotOnce.snap, trainedSnapshotOnce.data
	}
	dir := tb.TempDir()
	s, err := serve.New(serve.Config{Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		tb.Fatal(err)
	}
	if _, err := serve.DriveEvents(serveBenchStream(), serve.DriveConfig{Addr: s.Addr().String(), Clients: 4}); err != nil {
		s.Close()
		tb.Fatal(err)
	}
	info, err := s.Shutdown(dir)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := snapshot.ReadFile(info.Path)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(info.Path)
	if err != nil {
		tb.Fatal(err)
	}
	trainedSnapshotOnce.snap = snap
	trainedSnapshotOnce.data = data
	return snap, data
}

// BenchmarkSnapshotEncode measures the codec's framing + checksum
// throughput: MB/s of file bytes produced from an already-captured
// image (the per-predictor SaveState cost is measured end to end by
// BenchmarkServeCheckpoint). events/op is the learning the image
// represents.
func BenchmarkSnapshotEncode(b *testing.B) {
	snap, data := trainedSnapshot(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Encode(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(serveBenchStream())), "events/op")
}

// BenchmarkSnapshotDecode measures checkpoint parse+verify throughput
// (checksum, framing, structure) without predictor reconstruction.
func BenchmarkSnapshotDecode(b *testing.B) {
	_, data := trainedSnapshot(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.DecodeBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures the full warm-restart path: decode,
// verify and load every predictor table into fresh instances through the
// loader Server.Restore uses, each of the four shards' predictors on its
// own goroutine. Each load decodes from its own copy of its blob, and an
// FCM builds each order's slot table once, so B/op counts those copies
// and the load's sort arrays besides the tables the bank keeps.
// events/op is the events-to-warm equivalent — the stream length a cold
// server would have to re-serve to reach the same state. heap-B/ctx is
// the live heap one restored bank set retains per table entry (FCM
// contexts, almost all of them), measured once after the timed loop.
// CI ratchets the median of its ns/op over five runs.
func BenchmarkSnapshotRestore(b *testing.B) {
	trained, data := trainedSnapshot(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := snapshot.DecodeBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := serve.NewWarmBank(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(serveBenchStream())), "events/op")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	wb, err := serve.NewWarmBank(trained)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	_, entries := wb.TableEntries()
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(entries), "heap-B/ctx")
	runtime.KeepAlive(wb)
}

// BenchmarkServeCheckpoint measures an online checkpoint of a loaded
// server: the request-atomic cut, per-shard serialization and the atomic
// file write, while the server is otherwise idle. Each full checkpoint
// sweeps the one before it, so the directory holds one file throughout.
func BenchmarkServeCheckpoint(b *testing.B) {
	evs := serveBenchStream()
	dir := b.TempDir()
	s, err := serve.New(serve.Config{Shards: 4, CheckpointDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := serve.DriveEvents(evs, serve.DriveConfig{Addr: s.Addr().String(), Clients: 4}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.WriteCheckpoint(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

// deltaBenchStream builds the delta-checkpoint workload: a wide static
// PC set (8192 PCs), plus a hot stream over the lowest ~5% of those PCs,
// so steady-state mutation dirties a small band of PCs and their
// contexts — the access pattern (few hot instructions, stable table
// membership) delta checkpoints are built for.
var deltaStreamOnce struct {
	train, hot []serve.Event
}

func deltaBenchStream() (train, hot []serve.Event) {
	if deltaStreamOnce.train != nil {
		return deltaStreamOnce.train, deltaStreamOnce.hot
	}
	rns := seqclass.NonStridePeriod(5, 4)
	const (
		pcCount = 8192
		hotPCs  = pcCount * 5 / 100
		n       = 256_000
	)
	val := func(pc uint64, i int) uint64 {
		switch pc % 3 {
		case 0:
			return uint64(i) * 8
		case 1:
			return 42
		default:
			return rns[i%4]
		}
	}
	train = make([]serve.Event, n)
	for i := range train {
		pc := uint64((i % pcCount) * 4)
		train[i] = serve.Event{PC: pc, Value: val(pc, i)}
	}
	hot = make([]serve.Event, 4096)
	for i := range hot {
		pc := uint64((i % hotPCs) * 4)
		hot[i] = serve.Event{PC: pc, Value: val(pc, n+i)}
	}
	deltaStreamOnce.train, deltaStreamOnce.hot = train, hot
	return train, hot
}

// BenchmarkSnapshotDeltaEncode measures an incremental checkpoint cut on
// a loaded delta-mode server when ~5% of PCs have mutated since the
// previous cut: per op, the hot PC band is re-driven (untimed) and then
// one delta is cut (timed) — each shard's scan for changed contexts, the
// encoding of the stepped PCs' records, and the atomic file write. The
// full-cut reference over the same mutation pattern is measured during
// setup and reported as full_cut_ns and full_bytes; bytes_x and time_x
// are the full/delta ratios, with ≥5× the acceptance bar for both. CI
// ratchets ns/op here, so a delta cut cannot silently decay back into a
// full serialization.
func BenchmarkSnapshotDeltaEncode(b *testing.B) {
	train, hot := deltaBenchStream()
	dir := b.TempDir()
	s, err := serve.New(serve.Config{Shards: 4, CheckpointDir: dir, DeltaCheckpoints: true, FullEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0", ""); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := serve.DriveEvents(train, serve.DriveConfig{Addr: s.Addr().String(), Clients: 4}); err != nil {
		b.Fatal(err)
	}
	mutate := func() {
		if _, err := serve.DriveEvents(hot, serve.DriveConfig{Addr: s.Addr().String()}); err != nil {
			b.Fatal(err)
		}
	}
	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		os.Remove(path) // keep the temp dir from filling the disk
		return fi.Size()
	}

	// Full-cut reference over the identical state and mutation pattern.
	var fullNs, fullBytes int64
	const refIters = 3
	for i := 0; i < refIters; i++ {
		mutate()
		t0 := time.Now()
		info, err := s.WriteFullCheckpoint(dir)
		fullNs += int64(time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
		fullBytes += size(info.Path)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var deltaNs, deltaBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mutate()
		b.StartTimer()
		t0 := time.Now()
		info, err := s.WriteCheckpoint(dir)
		deltaNs += int64(time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
		if info.Kind != "delta" {
			b.Fatalf("expected a delta cut, got kind %q", info.Kind)
		}
		b.StopTimer()
		deltaBytes += size(info.Path)
		b.StartTimer()
	}
	fullCutNs := float64(fullNs) / refIters
	fullSz := float64(fullBytes) / refIters
	deltaSz := float64(deltaBytes) / float64(b.N)
	b.ReportMetric(fullCutNs, "full_cut_ns")
	b.ReportMetric(fullSz, "full_bytes")
	b.ReportMetric(deltaSz, "delta_bytes/op")
	b.ReportMetric(fullSz/deltaSz, "bytes_x")
	b.ReportMetric(fullCutNs/(float64(deltaNs)/float64(b.N)), "time_x")
}

// fcmGrowthEvents returns n events over 8192 PCs whose values are mostly
// fresh: nearly every event brings new order-1..3 contexts at its PC.
func fcmGrowthEvents(rng *rand.Rand, n int) (pcs, vals []uint64) {
	pcs, vals = make([]uint64, n), make([]uint64, n)
	for i := range pcs {
		pcs[i] = uint64(rng.Intn(8192)) * 4
		vals[i] = rng.Uint64() >> uint(rng.Intn(64))
	}
	return pcs, vals
}

// BenchmarkFCMSaveGrowth measures an FCM(3) save whose table grew since
// the previous save, the case every full checkpoint cut of a growing
// workload hits. Per op, untimed: restore a ~1M-context state, save once
// (the previous cut), then add ~10% new contexts; timed: one SaveState
// that groups every context by owning PC with a counting sort, in
// creation order, and encodes every record. CI ratchets ns/op here, so a save
// that goes back to sorting contexts fails the build.
func BenchmarkFCMSaveGrowth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := core.NewFCM(3)
	basePCs, baseVals := fcmGrowthEvents(rng, 340_000)
	for i := range basePCs {
		p.Update(basePCs[i], baseVals[i])
	}
	var base bytes.Buffer
	if err := p.SaveState(&base); err != nil {
		b.Fatal(err)
	}
	_, baseCtxs := p.TableEntries()
	growPCs, growVals := fcmGrowthEvents(rng, 34_000)
	var ctxs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := p.LoadState(bytes.NewReader(base.Bytes())); err != nil {
			b.Fatal(err)
		}
		if err := p.SaveState(io.Discard); err != nil {
			b.Fatal(err)
		}
		for j := range growPCs {
			p.Update(growPCs[j], growVals[j])
		}
		_, ctxs = p.TableEntries()
		b.StartTimer()
		if err := p.SaveState(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctxs), "contexts")
	b.ReportMetric(float64(ctxs-baseCtxs), "new_contexts")
}

// BenchmarkFullPass measures the all-collector analysis pass used by the
// suite experiments (events/op).
func BenchmarkFullPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := analysis.RunBenchmark(bench.M88ksim(), analysis.Config{Events: benchEvents})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchEvents, "events/op")
}
