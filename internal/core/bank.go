package core

// This file is the batch-first execution layer. A Bank owns a predictor
// set, its per-predictor correct counters and the reusable scratch arenas
// batching needs; StepBatch is the single step path shared by the engine's
// fan-out workers, the serving tier's shard loop, warm-restart replay and
// the offline Run/RunSequence wrappers, so none of them can drift from the
// paper's predict → compare → update protocol.
//
// The batch is grouped by PC before any predictor sees it: one probe of
// the bank's pc table per event builds contiguous same-PC value runs, and
// each predictor's StepRun kernel then pays a single probe of its own
// table per distinct PC per batch instead of one per event, with a fused
// predict/compare/update inner loop over the run. Grouping reorders
// events across PCs — never within one — which is exactly the
// transformation the Predictor contract's per-PC state is invariant under
// (the same property that lets the serving tier shard by hash(pc)).

// RunObserver is an optional tap on the bank's batch execution: after a
// batch's predictors have all stepped, ObserveRun is called once per
// same-PC value run with the run's values (stream order preserved within
// the PC) and, per predictor in bank order, how many of them that
// predictor predicted correctly (the count its StepRun returned). Runs
// are delivered in the batch's first-appearance PC order, and a PC's runs
// arrive in stream order across batches, so an observer sees exactly the
// per-static-instruction value subsequences the paper's analysis is
// defined over.
//
// The slices are the bank's reused arenas: observers must consume them
// during the call and retain nothing. Observation rides inside the
// zero-alloc batch path (see TestBankObserverZeroAlloc), so ObserveRun
// implementations are expected to be allocation-free in steady state too.
//
// Bind hands the observer the bank's predictors, in bank order, when the
// observer is attached, so it can read what their tables already hold
// instead of keeping tables of its own. Like ObserveRun it runs on the
// goroutine that steps the bank, and the predictors may be read only
// there.
type RunObserver interface {
	Bind(preds []Predictor)
	ObserveRun(pc uint64, values []uint64, hits []uint64)
}

// SetObserver attaches (or, with nil, detaches) a run observer and binds
// it to the bank's predictors. Not safe to call concurrently with
// StepBatch.
func (b *Bank) SetObserver(o RunObserver) {
	b.obs = o
	if o != nil {
		o.Bind(b.preds)
	}
}

// Observer returns the attached run observer, nil when none.
func (b *Bank) Observer() RunObserver { return b.obs }

// b2u8 converts a bool to the 0/1 hit byte the StepRun loops write.
func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// stepOne applies the per-event protocol for one predictor and returns 1
// on a correct prediction. It is the per-event reference the StepRun
// kernels are parity-tested against (bank_parity_test.go); no step path
// calls it.
func stepOne(p Predictor, pc, value uint64) uint64 {
	pred, ok := p.Predict(pc)
	p.Update(pc, value)
	if ok && pred == value {
		return 1
	}
	return 0
}

// Bank executes a predictor set over batched (pc, value) streams,
// accumulating per-predictor correct counts: each batch is grouped into
// same-PC runs once, and every predictor steps every run through its
// StepRun kernel. All scratch is owned by the bank and reused, so
// StepBatch is allocation-free in steady state. A Bank is not safe for
// concurrent use; give each goroutine its own.
type Bank struct {
	preds   []Predictor
	correct []uint64
	events  uint64

	// Grouping arenas. idx maps a PC to a dense handle that persists
	// across batches (it only ever grows, like predictor tables); epoch
	// stamps mark which handles appeared in the current batch so nothing
	// is cleared between batches.
	idx    pcTable
	epoch  []uint64 // per handle: stamp of the last batch that saw it
	gid    []int32  // per handle: group index within the current batch
	stamp  uint64   // current batch number
	egid   []int32  // per event: its group index
	gpc    []uint64 // per group: the PC
	cnt    []int32  // per group: event count, then the fill cursor
	starts []int32  // per group: offset of its run (len = groups+1)
	order  []int32  // event indices, grouped by PC, per-PC order kept
	gvals  []uint64 // values, gathered into contiguous same-PC runs
	hits   []byte   // per-event hit scratch, grouped order

	// Observer state: when obs is attached each run's hit count from
	// every predictor is kept, so each same-PC run can be delivered with
	// all predictors' outcomes at once.
	obs     RunObserver
	runHits []uint64 // per run g: predictor i's hits at g*len(preds)+i, reused
}

// NewBank builds a bank over the given predictors. The slice is retained.
func NewBank(preds ...Predictor) *Bank {
	return &Bank{
		preds:   preds,
		correct: make([]uint64, len(preds)),
	}
}

// Predictors returns the bank's predictors in counter order. The returned
// slice is the bank's own; callers must not mutate it.
func (b *Bank) Predictors() []Predictor { return b.preds }

// Correct returns a copy of the per-predictor correct counts accumulated
// since construction or the last Reset.
func (b *Bank) Correct() []uint64 { return append([]uint64(nil), b.correct...) }

// Events returns how many events the bank has stepped.
func (b *Bank) Events() uint64 { return b.events }

// StepBatch applies the predict → compare → update protocol to every
// event, accumulating correct counts. Events beyond min(len(pcs),
// len(values)) are ignored.
func (b *Bank) StepBatch(pcs, values []uint64) {
	b.StepBatchCollect(pcs, values, nil, nil)
}

// StepBatchCollect is StepBatch with per-batch outputs: when counts is
// non-nil, this batch's per-predictor hits are added into it; when
// bits[i] is non-nil (len(bits) must equal the predictor count), its
// first ⌈n/64⌉ words are overwritten with predictor i's per-event
// correctness, bit j set when event j (in the caller's original order)
// was predicted correctly.
func (b *Bank) StepBatchCollect(pcs, values, counts []uint64, bits [][]uint64) {
	n := len(pcs)
	if len(values) < n {
		n = len(values)
	}
	if n == 0 {
		b.gpc = b.gpc[:0]
		return
	}
	b.events += uint64(n)
	needOrder := false
	for _, bs := range bits {
		if bs != nil {
			needOrder = true
			break
		}
	}
	b.group(pcs[:n], values[:n], needOrder)
	np, ng := len(b.preds), len(b.gpc)
	observing := b.obs != nil
	var runHits []uint64
	if observing {
		if cap(b.runHits) < ng*np {
			b.runHits = make([]uint64, ng*np)
		}
		runHits = b.runHits[:ng*np]
	}
	hits := b.hits[:n]
	nw := (n + 63) / 64
	for i, p := range b.preds {
		var hit uint64
		for g := 0; g < ng; g++ {
			lo, hi := b.starts[g], b.starts[g+1]
			h := p.StepRun(b.gpc[g], b.gvals[lo:hi], hits[lo:hi])
			if observing {
				runHits[g*np+i] = h
			}
			hit += h
		}
		if bits != nil && bits[i] != nil {
			bs := bits[i][:nw]
			clear(bs)
			for k, j := range b.order[:n] {
				bs[uint32(j)>>6] |= uint64(hits[k]) << (uint32(j) & 63)
			}
		}
		b.correct[i] += hit
		if counts != nil {
			counts[i] += hit
		}
	}
	if observing {
		for g := 0; g < ng; g++ {
			b.obs.ObserveRun(b.gpc[g], b.gvals[b.starts[g]:b.starts[g+1]], runHits[g*np:(g+1)*np])
		}
	}
}

// BatchPCs returns the distinct PCs of the most recent batch in
// first-appearance order: one per same-PC run the bank stepped, read off
// the grouping StepBatchCollect already did. The slice is the bank's
// scratch, valid until the next step; callers must not modify it.
func (b *Bank) BatchPCs() []uint64 { return b.gpc }

// group buckets one batch by PC: a counting sort over the bank's pc
// table, stable within each PC, leaving contiguous per-PC value runs in
// gvals. The original event index of every grouped slot is recorded in
// order only when a bitset output needs the scatter map back to stream
// positions (needOrder).
func (b *Bank) group(pcs, values []uint64, needOrder bool) {
	n := len(pcs)
	b.stamp++
	b.gpc = b.gpc[:0]
	b.cnt = b.cnt[:0]
	if cap(b.egid) < n {
		b.egid = make([]int32, n)
	}
	egid := b.egid[:n]
	for j, pc := range pcs {
		h, ok := b.idx.lookup(pc)
		if !ok {
			h = b.idx.insert(pc)
			b.epoch = append(b.epoch, 0)
			b.gid = append(b.gid, 0)
		}
		if b.epoch[h] != b.stamp {
			b.epoch[h] = b.stamp
			b.gid[h] = int32(len(b.gpc))
			b.gpc = append(b.gpc, pc)
			b.cnt = append(b.cnt, 0)
		}
		g := b.gid[h]
		b.cnt[g]++
		egid[j] = g
	}
	ng := len(b.gpc)
	if cap(b.starts) < ng+1 {
		b.starts = make([]int32, ng+1)
	}
	starts := b.starts[:ng+1]
	starts[0] = 0
	for g := 0; g < ng; g++ {
		starts[g+1] = starts[g] + b.cnt[g]
	}
	b.starts = starts
	if cap(b.order) < n {
		b.order = make([]int32, n)
		b.gvals = make([]uint64, n)
		b.hits = make([]byte, n)
	}
	gvals := b.gvals[:n]
	fill := b.cnt // repurpose the counts as fill cursors
	copy(fill, starts[:ng])
	if needOrder {
		order := b.order[:n]
		for j := 0; j < n; j++ {
			g := egid[j]
			at := fill[g]
			order[at] = int32(j)
			gvals[at] = values[j]
			fill[g] = at + 1
		}
		return
	}
	for j := 0; j < n; j++ {
		g := egid[j]
		at := fill[g]
		gvals[at] = values[j]
		fill[g] = at + 1
	}
}

// Reset clears the correct counters, the event count and the grouping
// index (keeping all capacity), and resets every predictor in place.
func (b *Bank) Reset() {
	for _, p := range b.preds {
		p.Reset()
	}
	clear(b.correct)
	b.events = 0
	b.idx.reset()
	b.gpc = b.gpc[:0]
	b.epoch = b.epoch[:0]
	b.gid = b.gid[:0]
	b.stamp = 0
}
