// Package core implements the value predictors studied in "The
// Predictability of Data Values" (Sazeides & Smith, MICRO-30, 1997).
//
// Two families are provided, matching the paper's taxonomy:
//
//   - Computational predictors compute a function of previous values:
//     LastValue (identity, always update), StrideSimple (last value +
//     delta, always update) and the 2-delta stride of Eickemeyer &
//     Vassiliadis, Stride2Delta.
//
//   - Context-based predictors learn which value follows a finite ordered
//     sequence of previous values: FCM (finite context method) with exact
//     occurrence counts, full-concatenation contexts (no aliasing) and
//     blending with lazy exclusion across orders, exactly as simulated in
//     the paper.
//
// All predictors follow the paper's idealization: unbounded tables with one
// entry per static instruction (keyed by PC) and immediate update with the
// correct value after every prediction. The Predictor interface makes that
// a compile-time contract: every predictor keeps strictly per-PC state and
// steps a same-PC run of values natively (StepRun), so Bank can group any
// batch by PC and drive every predictor through one batch step path.
//
// The package is substrate-free: it consumes a bare (pc, value) stream and
// has no dependency on the ISA, simulator or benchmarks, so it can be used
// on any value trace.
package core

// Predictor is the common interface of all value predictors.
//
// The protocol for each dynamic instance of a static instruction is:
//
//	pred, ok := p.Predict(pc)   // ok=false while the table has no basis
//	...
//	p.Update(pc, actual)        // immediate update with the true value
//
// Predict must not mutate predictor state; Update performs all learning.
//
// A predictor's state is strictly per-PC: its behavior on one static
// instruction's value subsequence is independent of every other PC's
// events. That is what lets a Bank reorder events across PCs (never
// within one) and the serving tier shard by hash(pc) with bit-identical
// accuracy. The embedded interfaces are the capabilities the harnesses
// rely on: in-place reset, table occupancy (aggregate and per PC) and
// full and delta checkpointing.
type Predictor interface {
	// Name returns a short identifier such as "l", "s2" or "fcm3".
	Name() string

	// Predict returns the predicted next value for the static instruction
	// at pc. ok is false when the predictor has no basis for a prediction
	// yet (for accounting these count as mispredictions, matching the
	// paper's accuracy definition: correct predictions / all predictions).
	Predict(pc uint64) (value uint64, ok bool)

	// Update informs the predictor of the true value produced at pc.
	Update(pc uint64, value uint64)

	// StepRun applies the per-event protocol — predict, compare, update —
	// to every value in order, for the single static instruction at pc,
	// as one fused kernel. hits must have len(values) slots; hits[k] is
	// set to 1 when the prediction for values[k] was correct and 0
	// otherwise, and the return value is the total number of correct
	// predictions.
	StepRun(pc uint64, values []uint64, hits []byte) uint64

	Resetter
	Sized
	PerPC
	DeltaStateful
}

// Resetter clears a predictor's tables in place, which lets harnesses
// reuse allocations between runs.
type Resetter interface {
	Reset()
}

// Sized reports how many table entries a predictor holds and the bytes
// its tables take; used by the value-characteristics analysis and by
// memory accounting in the experiment harness and the serving tier.
type Sized interface {
	// TableEntries returns the number of static instructions tracked and
	// the total number of internal table entries (contexts, counters...).
	TableEntries() (static, total int)
	// StateBytes returns the exact byte account of the predictor's
	// tables: the bytes its live entries use and every byte its tables
	// hold allocated.
	StateBytes() MemBytes
}

// Factory constructs a fresh predictor instance. Experiment runners use
// factories so each benchmark gets untrained tables.
type Factory struct {
	// Name is the identifier instances will report; also used in reports.
	Name string
	// New returns a fresh, empty predictor.
	New func() Predictor
}

// Accuracy is a simple correct/total tally helper shared by harnesses.
type Accuracy struct {
	Correct uint64
	Total   uint64
}

// Observe records one prediction outcome.
func (a *Accuracy) Observe(correct bool) {
	a.Total++
	if correct {
		a.Correct++
	}
}

// Rate returns the fraction of correct predictions, or 0 when empty.
func (a Accuracy) Rate() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Total)
}

// Percent returns the accuracy as a percentage in [0,100].
func (a Accuracy) Percent() float64 { return a.Rate() * 100 }

// StepBank applies the paper's protocol — predict, compare, update — for
// one event across a bank of predictors, incrementing correct[i] when
// predictor i was right. It is the per-event parity oracle for the batch
// path: it steps through stepOne, never StepRun, so the tests that run
// reference predictors through it and compare against Bank.StepBatch
// check every StepRun kernel against the plain Predict/Update protocol.
// Streams should go through Bank.StepBatch.
func StepBank(ps []Predictor, correct []uint64, pc, value uint64) {
	for i, p := range ps {
		correct[i] += stepOne(p, pc, value)
	}
}

// runChunk bounds the batch the Run wrappers feed the bank at once, so a
// multi-million-event stream does not force an equally large grouping
// arena.
const runChunk = 4096

// Run drives a predictor over a value stream and returns its accuracy.
// It is a thin wrapper over the batch path: the stream is fed to a
// single-predictor Bank in bounded chunks.
func Run(p Predictor, pcs []uint64, values []uint64) Accuracy {
	n := len(pcs)
	if len(values) < n {
		n = len(values)
	}
	b := NewBank(p)
	for off := 0; off < n; off += runChunk {
		end := off + runChunk
		if end > n {
			end = n
		}
		b.StepBatch(pcs[off:end], values[off:end])
	}
	return Accuracy{Correct: b.correct[0], Total: uint64(n)}
}

// RunSequence drives a predictor over a single-instruction value sequence
// (all events share one PC), the setting of the paper's Table 1 analysis.
// Like Run it wraps the batch path; with one static instruction each
// chunk is a single maximal same-PC run.
func RunSequence(p Predictor, values []uint64) Accuracy {
	b := NewBank(p)
	var pcs [runChunk]uint64 // all zero: the sequence's single PC
	for off := 0; off < len(values); off += runChunk {
		end := off + runChunk
		if end > len(values) {
			end = len(values)
		}
		b.StepBatch(pcs[:end-off], values[off:end])
	}
	return Accuracy{Correct: b.correct[0], Total: uint64(len(values))}
}
