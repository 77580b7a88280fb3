package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/experiments"
)

// The paper workload: experiments.RunAll over all 18 artifacts at a
// fixed per-benchmark event budget, with the engine at GOMAXPROCS
// workers. Its inputs are the paper's fixed programs, so the seed does
// not change them.
const (
	paperEvents  = 200_000
	paperMaxRuns = 5
)

func runPaper(e *env) error {
	// Reference output from the serial path (Workers: 1), untimed.
	var ref bytes.Buffer
	if err := experiments.RunAll(&ref, experiments.Config{Events: paperEvents, Workers: 1}); err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	refSum := sha256.Sum256(ref.Bytes())
	note("input events_per_benchmark=%d reference_sha=%x (serial, %d bytes)", paperEvents, refSum[:8], ref.Len())

	if e.traced {
		if err := paperLayers(e); err != nil {
			return err
		}
	}
	var runs []float64
	steal := startSteal()
	total := 0.0
	for i := 0; i < 1 || (total < e.seconds && i < paperMaxRuns); i++ {
		var out bytes.Buffer
		liveHeapMB()
		d, err := e.tr.timed("experiments.run_all", 0, func() error {
			return experiments.RunAll(&out, experiments.Config{Events: paperEvents})
		})
		if err != nil {
			return err
		}
		e.attempted++
		e.gate(paperGate(out.Bytes(), refSum))
		runs = append(runs, d.Seconds())
		total += d.Seconds()
	}
	note("steal over the RunAll calls: %s", steal)
	if e.gateErr == nil {
		note("gate: %d RunAll outputs byte-identical to the serial reference", len(runs))
	}
	e.endToEndMetric("run_s", median(runs), "s")
	e.endToEndMetric("setup_s", 0, "s")
	return nil
}

// paperGate checks one RunAll output against the serial reference's
// digest.
func paperGate(out []byte, ref [sha256.Size]byte) error {
	if sha256.Sum256(out) != ref {
		return fmt.Errorf("%w: RunAll output differs from the serial reference", errGate)
	}
	return nil
}

// headerClock timestamps the artifact headers RunAll writes, splitting
// one RunAll into its suite pass and its per-artifact spans.
type headerClock struct {
	bytes.Buffer
	marks []mark
}

type mark struct {
	id string
	at int64
}

func (h *headerClock) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("=== ")) {
		id, _, _ := bytes.Cut(p[4:], []byte(":"))
		h.marks = append(h.marks, mark{id: string(id), at: now()})
	}
	return h.Buffer.Write(p)
}

// paperLayers times minic, sim, the engine's stages and the artifact
// groups of one RunAll.
func paperLayers(e *env) error {
	if err := probeMinicSim(e, paperEvents); err != nil {
		return err
	}
	events := uint64(len(bench.Registry())) * paperEvents
	stage0 := stageNs()
	var hc headerClock
	root := e.tr.begin("experiments.run_all.traced", 0, 0, 0)
	start := now()
	if err := experiments.RunAll(&hc, experiments.Config{Events: paperEvents}); err != nil {
		return err
	}
	end := now()
	e.tr.end(root)
	stage1 := stageNs()
	for _, st := range []string{"sim", "bank", "merge"} {
		e.layerMetric("engine."+st+"_ns_per_event", (stage1[st]-stage0[st])/float64(events), "ns")
	}

	// Artifact spans run from one header to the next; the shared suite
	// pass is everything before the first header. The analytic artifacts
	// (table1, fig1, fig2) belong to no group.
	if len(hc.marks) == 0 {
		return fmt.Errorf("RunAll wrote no artifact headers")
	}
	groups := map[string]time.Duration{"suite": time.Duration(hc.marks[0].at - start)}
	for i, m := range hc.marks {
		stop := end
		if i+1 < len(hc.marks) {
			stop = hc.marks[i+1].at
		}
		e.tr.endAt(span{Name: "experiments.artifact." + m.id, ID: e.tr.ids.Add(1), Parent: root.ID, Start: m.at}, stop)
		switch exp := experiments.ByID(m.id); {
		case exp != nil && exp.NeedsSuite:
			groups["suite"] += time.Duration(stop - m.at)
		case m.id == "table6" || m.id == "table7" || m.id == "fig11":
			groups["sensitivity"] += time.Duration(stop - m.at)
		case m.id == "ceil":
			groups["ceil"] += time.Duration(stop - m.at)
		}
	}
	e.layerMetric("experiments.suite_s", groups["suite"].Seconds(), "s")
	e.layerMetric("experiments.sensitivity_s", groups["sensitivity"].Seconds(), "s")
	e.layerMetric("experiments.ceil_s", groups["ceil"].Seconds(), "s")
	return nil
}

// stageNs reads the engine's lifetime per-stage span time.
func stageNs() map[string]float64 {
	out := map[string]float64{}
	for _, st := range engine.TraceStageSummary() {
		out[st.Stage] = float64(st.Ns)
	}
	return out
}
