package main

import (
	"crypto/sha256"
	"errors"
	"testing"
)

func testEnv(t *testing.T, workload string) *env {
	return &env{
		workload: workload, seed: 1, seconds: 0.8, nproc: 2, outDir: t.TempDir(),
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
}

// assertFailedRun checks that a recorded gate failure fails every attempt.
func assertFailedRun(t *testing.T, e *env, err error) {
	t.Helper()
	if !errors.Is(err, errGate) {
		t.Fatalf("perturbed input passed the gate (err %v)", err)
	}
	e.gate(err)
	for _, name := range endToEnd {
		e.endToEndMetric(name, 1, "unit")
	}
	res := e.result()
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Fatalf("result after a failed gate: %+v", res)
	}
	if f := e.e2e["failed_frac"].Value; f != 1 {
		t.Fatalf("failed_frac %v after a failed gate, want 1", f)
	}
}

func TestLoopsGate(t *testing.T) {
	e := testEnv(t, "loops")
	var rounds []*loopRound
	for r := 0; r < 2; r++ {
		rd, err := loopsRound(e, r, false)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, rd)
	}
	if _, err := loopsGate(e, rounds); err != nil {
		t.Fatalf("served run failed its gate: %v", err)
	}
	rounds[1].conns[0].tallies[3]++
	_, err := loopsGate(e, rounds)
	assertFailedRun(t, e, err)
}

func TestProgramsGates(t *testing.T) {
	streams, err := programStreams(3000)
	if err != nil {
		t.Fatal(err)
	}
	all := interleave(1, streams)
	hist, cont := all[:9000], all[9000:]
	for _, warm := range []bool{true, false} {
		e := testEnv(t, "programs")
		pr, err := newProgRun(e, warm, hist, cont)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := programsRound(e, 0, pr, false)
		if err != nil {
			t.Fatal(err)
		}
		if e.gateErr != nil {
			t.Fatalf("warm=%t: served round failed its chain gate: %v", warm, e.gateErr)
		}
		served := roundTotals(rd)
		if err := pr.checkParity(served); err != nil {
			t.Fatalf("warm=%t: served round failed offline parity: %v", warm, err)
		}

		perturbed := append([]uint64(nil), served...)
		perturbed[4]++
		if err := pr.checkParity(perturbed); !errors.Is(err, errGate) {
			t.Fatalf("warm=%t: perturbed tally passed offline parity (err %v)", warm, err)
		}
		rd.conns[1].tallies[0]++
		assertFailedRun(t, e, checkChain(rd, pr))
	}
}

func TestPaperGate(t *testing.T) {
	out := []byte("=== table1: ... ===\n")
	ref := sha256.Sum256(out)
	if err := paperGate(out, ref); err != nil {
		t.Fatal(err)
	}
	e := testEnv(t, "paper")
	e.attempted = 1
	ref[0] ^= 1
	assertFailedRun(t, e, paperGate(out, ref))
}
