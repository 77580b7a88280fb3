package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/serve"
)

// Input generators. Every generator is a pure function of its seed and
// size arguments: the same arguments give the same events, and the run
// prints their digest so two runs can be matched to their inputs.

// digest hashes events as little-endian (pc, value) pairs.
func digest(parts ...[]serve.Event) string {
	h := sha256.New()
	var b [16]byte
	for _, evs := range parts {
		for _, ev := range evs {
			binary.LittleEndian.PutUint64(b[:8], ev.PC)
			binary.LittleEndian.PutUint64(b[8:], ev.Value)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// programTag moves program i's PCs into a space of their own, so the
// seven programs never share a predictor table entry.
func programTag(i int) uint64 { return uint64(i+1) << 48 }

// programStreams simulates every internal/bench program at bench.RefOpt
// and returns each one's first perProgram value events, PC-tagged.
func programStreams(perProgram int) ([][]serve.Event, error) {
	ws := bench.Registry()
	out := make([][]serve.Event, len(ws))
	for i, w := range ws {
		evs := make([]serve.Event, 0, perProgram)
		tag := programTag(i)
		_, err := engine.RunStream(engine.StreamConfig{
			Benchmark: w.Name, Opt: bench.RefOpt, Events: uint64(perProgram),
		}, func(pcs, vals []uint64) {
			for j := range pcs {
				evs = append(evs, serve.Event{PC: pcs[j] | tag, Value: vals[j]})
			}
		})
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", w.Name, err)
		}
		if len(evs) != perProgram {
			return nil, fmt.Errorf("%s produced %d events, want %d", w.Name, len(evs), perProgram)
		}
		out[i] = evs
	}
	return out, nil
}

// Chunk lengths of the programs interleave, in events.
const (
	minChunk = 64
	maxChunk = 4096
)

// interleave merges the per-program streams in seeded chunks. Each chunk
// comes from a program drawn with probability proportional to the events
// it has left, so all programs stay live until the stream's end. Each
// program's own order is kept.
func interleave(seed int64, streams [][]serve.Event) []serve.Event {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]serve.Event, 0, total)
	next := make([]int, len(streams))
	for left := total; left > 0; {
		r := rng.Intn(left)
		p := 0
		for ; ; p++ {
			rem := len(streams[p]) - next[p]
			if r < rem {
				break
			}
			r -= rem
		}
		n := minChunk + rng.Intn(maxChunk-minChunk+1)
		n = min(n, len(streams[p])-next[p])
		out = append(out, streams[p][next[p]:next[p]+n]...)
		next[p] += n
		left -= n
	}
	return out
}

// Loops: the paper's periodic sequence classes (Table 1) laid out as
// loop bodies. Every PC repeats one periodic value sequence, so after a
// warm-up covering each period the predictor tables stop growing.
const (
	loopPCs     = 4096
	loopBody    = 16
	loopBodies  = loopPCs / loopBody
	loopBasePC  = 0x40_0000
	loopMaxTrip = 64
	// loopWarmTrips runs every body this many times in the warm-up: more
	// than the longest period plus the highest FCM order, twice over, so
	// every context every PC will ever produce is already tabled.
	loopWarmTrips = 48
)

// Sequence classes, as in Table 1.
const (
	classConstant = iota
	classRepStride
	classRepNonStride
	numClasses
)

// loopPC is one static instruction of a loop body: its value sequence
// is vals[k % len(vals)] at its k-th execution.
type loopPC struct {
	pc   uint64
	vals []uint64
	k    int
}

// loopGen produces the loops stream. The class and period multiset is
// the same for every seed (only its assignment to PCs is shuffled), so
// seeds differ in layout, not in how much work an event costs.
type loopGen struct {
	rng    *rand.Rand
	pcs    []loopPC
	body   int // current body
	tripsL int // iterations left in the current body
	pos    int // next PC within the current iteration
}

func newLoopGen(seed int64) *loopGen {
	rng := rand.New(rand.NewSource(seed))
	g := &loopGen{rng: rng, pcs: make([]loopPC, loopPCs)}
	perm := rng.Perm(loopPCs)
	for i := range g.pcs {
		// Slot s has class s%3 and period 2+(s/3)%15: a fixed multiset
		// over the slots, dealt to PCs by the seeded permutation.
		slot := perm[i]
		class := slot % numClasses
		period := 2 + (slot/numClasses)%15
		var vals []uint64
		switch class {
		case classConstant:
			vals = []uint64{rng.Uint64()}
		case classRepStride:
			base, stride := rng.Uint64(), uint64(1+rng.Intn(64))
			vals = make([]uint64, period)
			for j := range vals {
				vals[j] = base + uint64(j)*stride
			}
		case classRepNonStride:
			vals = make([]uint64, period)
			for j := range vals {
				vals[j] = rng.Uint64()
			}
		}
		g.pcs[i] = loopPC{pc: loopBasePC + uint64(i)*4, vals: vals}
	}
	return g
}

// warmup returns the untimed warm-up pass: every body, in seeded order,
// for loopWarmTrips iterations.
func (g *loopGen) warmup() []serve.Event {
	out := make([]serve.Event, 0, loopPCs*loopWarmTrips)
	for _, b := range g.rng.Perm(loopBodies) {
		for t := 0; t < loopWarmTrips; t++ {
			for i := b * loopBody; i < (b+1)*loopBody; i++ {
				out = append(out, g.step(i))
			}
		}
	}
	return out
}

func (g *loopGen) step(i int) serve.Event {
	p := &g.pcs[i]
	v := p.vals[p.k%len(p.vals)]
	p.k++
	return serve.Event{PC: p.pc, Value: v}
}

// fill writes the next len(dst) events of the timed stream: seeded
// bodies run for seeded trip counts, iteration after iteration.
func (g *loopGen) fill(dst []serve.Event) {
	for j := range dst {
		if g.pos == 0 && g.tripsL == 0 {
			g.body = g.rng.Intn(loopBodies)
			g.tripsL = 1 + g.rng.Intn(loopMaxTrip)
		}
		dst[j] = g.step(g.body*loopBody + g.pos)
		g.pos++
		if g.pos == loopBody {
			g.pos = 0
			g.tripsL--
		}
	}
}
