// Command vptrace captures, inspects, replays and serves value traces.
//
// Usage:
//
//	vptrace capture -bench gcc -events 1000000 -o gcc.vpt
//	vptrace info gcc.vpt
//	vptrace replay -pred fcm3,s2,l gcc.vpt
//	vptrace analyze -top 10 gcc.vpt
//	vptrace drive -addr localhost:9747 -clients 8 gcc.vpt
//	vptrace drive -addr localhost:9747 -bench compress -events 500000
//
// Capture once, then replay the identical event stream against any
// predictor configuration — the decoupling the paper's trace-driven
// methodology relies on. analyze replays with a predictability tracker
// attached and reports the paper-style per-class accuracy-vs-ceiling
// tables plus the hardest and easiest PCs; its context ceilings and
// entropies are exact, read from the bank's own FCM tables, so a -pred
// list without an FCM reports neither. drive replays a trace (or a
// live benchmark simulation) against a running vpserve as load
// generation, and with -verify checks the server's tallies against an
// offline replay of the same stream.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/predstat"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "capture":
		capture(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "analyze":
		analyze(os.Args[2:])
	case "drive":
		drive(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  vptrace capture -bench NAME [-opt N] [-scale N] [-events N] -o FILE
  vptrace info FILE
  vptrace replay [-pred %[1]s] FILE
  vptrace analyze [-pred %[1]s] [-top N] [-min-events N] [-log-level LVL] FILE
  vptrace drive -addr HOST:PORT [-clients N] [-batch N] [-verify [-warm SNAP]] FILE
  vptrace drive -addr HOST:PORT -bench NAME [-opt N] [-scale N] [-events N]

analyze's order-k context ceilings and conditional entropy are exact: each
comes from the top-order counts of the -pred list's order-k FCM, so a list
without an FCM yields no context ceiling and no entropy.

known predictors: %[2]s
`, defaultPreds, strings.Join(core.KnownNames(), ","))
	os.Exit(2)
}

const defaultPreds = "l,s2,fcm1,fcm2,fcm3"

func capture(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	name := fs.String("bench", "", "workload name (compress, gcc, go, ijpeg, m88ksim, perl, xlisp)")
	opt := fs.Int("opt", bench.RefOpt, "compiler optimization level")
	scale := fs.Int("scale", 1, "input scale factor")
	events := fs.Uint64("events", 0, "event cap (0 = run to completion)")
	out := fs.String("o", "", "output trace file")
	fs.Parse(args)
	w := bench.ByName(*name)
	if w == nil || *out == "" {
		usage()
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	tw, err := trace.NewWriter(f, trace.Header{Benchmark: *name, Opt: *opt, Scale: *scale})
	if err != nil {
		f.Close()
		fatal(err)
	}
	_, err = w.Run(bench.RunConfig{
		Opt:       *opt,
		Scale:     *scale,
		MaxEvents: *events,
		OnValues: func(evs []sim.ValueEvent) {
			for _, ev := range evs {
				if err := tw.Write(trace.FromSim(ev)); err != nil {
					fatal(err)
				}
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	if err := tw.Close(); err != nil {
		fatal(err)
	}
	// Close errors are real data loss on buffered filesystems — check.
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "captured %d events to %s (%d bytes)\n", tw.Count(), *out, st.Size())
}

func openTrace(path string) (*os.File, *trace.Reader) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	return f, r
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, r := openTrace(args[0])
	defer f.Close()
	var total uint64
	var perCat [isa.NumCategories]uint64
	pcs := make(map[uint64]bool)
	err := r.ForEachBatch(0, func(evs []trace.Event) error {
		for _, ev := range evs {
			total++
			perCat[ev.Cat]++
			pcs[ev.PC] = true
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark: %s (opt %d, scale %d)\n", r.Header.Benchmark, r.Header.Opt, r.Header.Scale)
	fmt.Printf("events:    %d from %d static instructions\n", total, len(pcs))
	for _, cat := range isa.PredictedCategories() {
		if perCat[cat] > 0 {
			fmt.Printf("  %-8s %10d  (%.1f%%)\n", cat, perCat[cat], 100*float64(perCat[cat])/float64(total))
		}
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	preds := fs.String("pred", defaultPreds, "comma-separated predictors")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, r := openTrace(fs.Arg(0))
	defer f.Close()

	facs, err := core.ParseFactories(*preds)
	if err != nil {
		fatal(err)
	}
	ps := make([]core.Predictor, len(facs))
	for i, fac := range facs {
		ps[i] = fac.New()
	}
	// Each trace batch goes through the same core.Bank batch path the
	// serving tier and warm-restart replay use; the SoA scratch is reused
	// across batches.
	bank := core.NewBank(ps...)
	lat := obs.NewHistogram()
	var stepNs int64 // predictor time only, excluding trace decode
	var pcs, vals []uint64
	err = r.ForEachBatch(0, func(evs []trace.Event) error {
		if cap(pcs) < len(evs) {
			pcs = make([]uint64, len(evs))
			vals = make([]uint64, len(evs))
		}
		pcs, vals = pcs[:len(evs)], vals[:len(evs)]
		for j, ev := range evs {
			pcs[j] = ev.PC
			vals[j] = ev.Value
		}
		t0 := time.Now()
		bank.StepBatch(pcs, vals)
		d := time.Since(t0).Nanoseconds()
		stepNs += d
		lat.ObserveInt(d)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	total := bank.Events()
	correct := bank.Correct()
	fmt.Printf("%s: %d events\n", r.Header.Benchmark, total)
	if s := lat.Snapshot(); s.Count > 0 {
		eps := 0.0
		if stepNs > 0 {
			eps = float64(total) / (float64(stepNs) / 1e9)
		}
		fmt.Printf("  batch latency: p50=%s p90=%s p99=%s max=%s (%d batches, %.0f events/sec)\n",
			time.Duration(s.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(s.Quantile(0.90)).Round(time.Microsecond),
			time.Duration(s.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(s.Max).Round(time.Microsecond), s.Count, eps)
	}
	for i, fac := range facs {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(correct[i]) / float64(total)
		}
		fmt.Printf("  %-6s %6.2f%%\n", fac.Name, pct)
	}
}

// analyze replays a trace through a predictor bank with a predictability
// tracker attached and reports per-class accuracy versus the exact
// ceilings the streams themselves permit, read from the bank's FCMs, plus
// the hardest and easiest PCs and per-predictor ceiling-gap attribution.
func analyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	preds := fs.String("pred", defaultPreds, "comma-separated predictors")
	topN := fs.Int("top", 10, "hardest/easiest PCs to list")
	minEvents := fs.Uint64("min-events", 64, "per-PC event floor below which a PC is not reported")
	logLevel := fs.String("log-level", "", "minimum log level (debug|info|warn|error; default $"+obs.LogLevelEnv+", then info)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	lvl, err := obs.ResolveLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log := obs.NewLogger(os.Stderr, lvl)
	f, r := openTrace(fs.Arg(0))
	defer f.Close()

	facs, err := core.ParseFactories(*preds)
	if err != nil {
		fatal(err)
	}
	ps := make([]core.Predictor, len(facs))
	names := make([]string, len(facs))
	for i, fac := range facs {
		ps[i] = fac.New()
		names[i] = fac.Name
	}
	bank := core.NewBank(ps...)
	tr := predstat.NewTracker(predstat.Config{PredNames: names, MinEvents: *minEvents})
	bank.SetObserver(tr)
	var pcs, vals []uint64
	err = r.ForEachBatch(0, func(evs []trace.Event) error {
		if cap(pcs) < len(evs) {
			pcs = make([]uint64, len(evs))
			vals = make([]uint64, len(evs))
		}
		pcs, vals = pcs[:len(evs)], vals[:len(evs)]
		for j, ev := range evs {
			pcs[j] = ev.PC
			vals[j] = ev.Value
		}
		bank.StepBatch(pcs, vals)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	rep := tr.Report(*topN)
	log.Info("analyzed", "benchmark", r.Header.Benchmark, "events", rep.Events,
		"pcs", rep.PCs, "reported", rep.Reported)

	fmt.Printf("%s: %d events, %d PCs (%d with >=%d events)\n\n",
		r.Header.Benchmark, rep.Events, rep.PCs, rep.Reported, *minEvents)
	classTab := analysis.NewTable("accuracy vs entropy ceiling by sequence class",
		"Class", "PCs", "Events", "Entropy (b)", "Ceiling (%)", "Best (%)", "Gap (%)")
	for _, cls := range predstat.ClassLabels {
		cs := rep.Classes[cls]
		if cs == nil {
			continue
		}
		classTab.AddRow(cls, fmt.Sprint(cs.PCs), fmt.Sprint(cs.Events),
			fmt.Sprintf("%.3f", cs.EntropyBits),
			fmt.Sprintf("%.1f", 100*cs.Ceiling),
			fmt.Sprintf("%.1f", 100*cs.Accuracy),
			fmt.Sprintf("%.1f", 100*(cs.Ceiling-cs.Accuracy)))
	}
	classTab.Render(os.Stdout)

	gapTab := analysis.NewTable("per-predictor ceiling gap (judged against each predictor's own class ceiling)",
		"Predictor", "Hit (%)", "Ceiling (%)", "Gap (%)")
	for _, g := range rep.GapByPred {
		if g.Events == 0 {
			continue
		}
		gapTab.AddRow(g.Name,
			fmt.Sprintf("%.1f", 100*float64(g.Hits)/float64(g.Events)),
			fmt.Sprintf("%.1f", 100*g.CeilWeighted/float64(g.Events)),
			fmt.Sprintf("%.1f", 100*g.Gap))
	}
	gapTab.Render(os.Stdout)

	for _, rank := range []struct {
		title string
		list  []predstat.PCReport
	}{
		{"hardest PCs (highest conditional entropy)", rep.Hardest},
		{"easiest PCs (lowest conditional entropy)", rep.Easiest},
	} {
		t := analysis.NewTable(rank.title,
			"PC", "Class", "Events", "Entropy (b)", "Ceiling (%)", "Best", "Best (%)", "Gap (%)")
		for _, pr := range rank.list {
			t.AddRow(fmt.Sprintf("%#x", pr.PC), pr.Class, fmt.Sprint(pr.Events),
				fmt.Sprintf("%.3f", pr.EntropyBits),
				fmt.Sprintf("%.1f", 100*pr.Ceiling),
				pr.BestPred,
				fmt.Sprintf("%.1f", 100*pr.BestAccuracy),
				fmt.Sprintf("%.1f", 100*pr.Gap))
		}
		t.Render(os.Stdout)
	}
}

// drive replays a trace file — or a live benchmark simulation — against a
// running vpserve at the requested client concurrency.
func drive(args []string) {
	fs := flag.NewFlagSet("drive", flag.ExitOnError)
	addr := fs.String("addr", "localhost:9747", "vpserve binary-protocol address")
	clients := fs.Int("clients", 1, "concurrent client connections")
	batch := fs.Int("batch", 0, "events per request (0 = default)")
	verify := fs.Bool("verify", false, "also replay offline and verify the server's tallies match")
	warm := fs.String("warm", "", "checkpoint the server was warm-restarted from (a delta resolves through its chain); -verify replays from this state instead of cold tables")
	benchName := fs.String("bench", "", "drive a live simulation of this workload instead of a trace file")
	opt := fs.Int("opt", bench.RefOpt, "compiler optimization level (with -bench)")
	scale := fs.Int("scale", 1, "input scale factor (with -bench)")
	events := fs.Uint64("events", 0, "event cap (with -bench; 0 = run to completion)")
	traced := fs.Bool("trace", false, "mint a trace context per request; slow requests are retained in the server's GET /trace")
	traceSample := fs.Int("trace-sample", 1024, "with -trace, head-sample 1 in N requests for retention regardless of latency (1 = retain all)")
	fs.Parse(args)
	if *warm != "" && !*verify {
		fatal(fmt.Errorf("-warm only affects verification; pass -verify with it"))
	}

	cfg := serve.DriveConfig{Addr: *addr, Clients: *clients, BatchSize: *batch}
	if *traced {
		if *traceSample <= 0 {
			fatal(fmt.Errorf("-trace-sample must be positive"))
		}
		cfg.TraceSample = *traceSample
	}

	// -verify needs the stream twice (once online, once offline), and a
	// live -bench run produces it in memory anyway; a plain trace drive
	// streams the file through DriveTrace with constant memory instead.
	var evs []serve.Event
	var label string
	var res *serve.DriveResult
	var err error
	switch {
	case *benchName != "":
		if fs.NArg() != 0 {
			usage()
		}
		w := bench.ByName(*benchName)
		if w == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *benchName))
		}
		label = w.Name
		_, err = w.Run(bench.RunConfig{
			Opt:       *opt,
			Scale:     *scale,
			MaxEvents: *events,
			OnValues: func(batch []sim.ValueEvent) {
				for _, ev := range batch {
					evs = append(evs, serve.Event{PC: ev.PC, Value: ev.Value})
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		res, err = serve.DriveEvents(evs, cfg)
	case fs.NArg() == 1 && *verify:
		f, r := openTrace(fs.Arg(0))
		label = r.Header.Benchmark
		rerr := r.ForEachBatch(0, func(batch []trace.Event) error {
			for _, ev := range batch {
				evs = append(evs, serve.Event{PC: ev.PC, Value: ev.Value})
			}
			return nil
		})
		f.Close()
		if rerr != nil {
			fatal(rerr)
		}
		res, err = serve.DriveEvents(evs, cfg)
	case fs.NArg() == 1:
		f, r := openTrace(fs.Arg(0))
		label = r.Header.Benchmark
		res, err = serve.DriveTrace(r, cfg)
		f.Close()
	default:
		usage()
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: drove %d events through %s (%d clients): %.0f events/sec\n",
		label, res.Events, *addr, max(*clients, 1), res.EventsPerSec())
	if lat := res.LatencySummary(); lat != "" {
		fmt.Printf("  request latency: %s (%d batches, %.0f events/sec)\n",
			lat, res.Latency.Count, res.EventsPerSec())
	}
	if len(res.SlowTraces) > 0 {
		// The ids past the run's p99 — the ones worth pasting into the
		// server's GET /trace (they are exactly what tail sampling keeps).
		p99 := int64(res.Latency.Quantile(0.99))
		printed := 0
		for _, st := range res.SlowTraces {
			if st.DurNs < p99 && printed > 0 {
				break
			}
			fmt.Printf("  p99+ trace %s  %s\n", st.TraceID, time.Duration(st.DurNs).Round(time.Microsecond))
			printed++
		}
	}
	for i, name := range res.Predictors {
		fmt.Printf("  %-6s %6.2f%%  (%d/%d)\n", name, res.AccuracyPct(i), res.Correct[i], res.Events)
	}

	if *verify {
		facs, err := core.ParseFactories(strings.Join(res.Predictors, ","))
		if err != nil {
			fatal(fmt.Errorf("server predictors not all known locally: %w", err))
		}
		var correct []uint64
		var mode string
		if *warm != "" {
			// Warm-restart parity: replay from the snapshot's restored
			// state, mirroring the server's sharded layout exactly. A
			// delta checkpoint resolves through its chain first.
			loaded, _, err := snapshot.ResolveChain(*warm)
			if err != nil {
				fatal(err)
			}
			if res.ServerPriorEvents != loaded.Meta.Events {
				fatal(fmt.Errorf(
					"verify: server reported %d prior events but snapshot %s holds %d; it was restored from a different checkpoint (or has served traffic since restoring)",
					res.ServerPriorEvents, loaded.Meta.ID, loaded.Meta.Events))
			}
			bank, err := serve.WarmBankOf(loaded)
			if err != nil {
				fatal(err)
			}
			if got := strings.Join(bank.Predictors(), ","); got != strings.Join(res.Predictors, ",") {
				fatal(fmt.Errorf("verify: snapshot bank %q does not match server bank %q",
					got, strings.Join(res.Predictors, ",")))
			}
			bank.StepBatch(evs)
			correct = bank.Correct()
			mode = fmt.Sprintf("replay warm from snapshot %s (%d events of prior learning)", loaded.Meta.ID, loaded.Meta.Events)
		} else {
			if res.ServerPriorEvents > 0 {
				fatal(fmt.Errorf(
					"verify: server had already processed %d events before this drive; offline replay starts from cold tables — pass -warm SNAPSHOT if the server was restored from a checkpoint",
					res.ServerPriorEvents))
			}
			ps := make([]core.Predictor, len(facs))
			for i, fac := range facs {
				ps[i] = fac.New()
			}
			// Cold replay rides the same batch path as the server's shard
			// loop, in bounded chunks so scratch memory stays constant.
			bank := core.NewBank(ps...)
			const chunk = 4096
			pcs := make([]uint64, chunk)
			vals := make([]uint64, chunk)
			for off := 0; off < len(evs); off += chunk {
				end := min(off+chunk, len(evs))
				m := end - off
				for j := 0; j < m; j++ {
					pcs[j] = evs[off+j].PC
					vals[j] = evs[off+j].Value
				}
				bank.StepBatch(pcs[:m], vals[:m])
			}
			correct = bank.Correct()
			mode = "replay from cold tables"
		}
		mismatches := 0
		for i, fac := range facs {
			if correct[i] != res.Correct[i] {
				mismatches++
				fmt.Printf("  VERIFY FAIL %s: offline %d correct, server %d\n", fac.Name, correct[i], res.Correct[i])
			}
		}
		if mismatches > 0 {
			fatal(fmt.Errorf("verify: %d predictor(s) diverged from offline %s", mismatches, mode))
		}
		fmt.Printf("  verify: server tallies identical to offline %s\n", mode)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vptrace:", err)
	os.Exit(1)
}
