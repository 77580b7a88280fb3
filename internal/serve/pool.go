package serve

import "sync"

// pendingPool recycles request-lifetime objects so the serving hot path
// is allocation-free in steady state: the pending itself, its per-request
// pcs/vals arrays (the bucketed copy the shards step until the request
// completes) and the per-predictor tally slots are all reused. A pending returns to the
// pool only after the response writer has consumed its done signal, so
// reuse never races the shards.
//
// done is a one-slot buffered channel signalled (not closed) by the last
// finishing shard, which is what makes the channel itself reusable across
// requests; it is allocated once per pooled object and stays empty
// between uses (init fires it immediately for zero-part requests, the
// writer always receives exactly once).
var pendingPool = sync.Pool{
	New: func() any {
		return &pending{done: make(chan struct{}, 1)}
	},
}

// getPending returns a pending ready for init.
func getPending() *pending {
	return pendingPool.Get().(*pending)
}

// putPending recycles p (and its buffers) once no shard or writer can
// touch it anymore.
func putPending(p *pending) {
	pendingPool.Put(p)
}
