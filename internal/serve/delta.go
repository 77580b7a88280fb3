package serve

// Delta checkpoints: the serve-side half of record deltas. The server
// remembers the live chain's tip between cuts. Each cut decides
// root-vs-delta under ckptMu and mails the decision to every shard with
// the cut markers; each shard then saves its predictors on its own
// goroutine — SaveState for a root, SaveDelta for a delta. Each
// predictor marks the PCs (and the FCM the contexts) its steps change and
// either save clears the marks, so the server tracks nothing per PC. Any
// capture or write failure poisons the chain, forcing the next cut to be
// a root, which is also what makes clearing the marks at a capture that
// never lands sound.

import "repro/internal/snapshot"

// defaultFullEvery is how many delta checkpoints may follow a root
// before the next cut is forced to be one, bounding restore chain length.
const defaultFullEvery = 8

// chainState tracks the live delta chain between checkpoints. Mutated
// only under ckptMu.
type chainState struct {
	// tipID and depth name the chain tip and its delta links past the
	// root: 0 right after a root, so depth also counts the deltas since
	// the last full.
	tipID string
	depth int
	// poisoned forces the next cut to be a root: set when a capture or
	// write failed (predictors may have cleared their change marks for a
	// checkpoint that never landed) and cleared by the next durable root.
	poisoned bool
}

// cutDelta reports whether the next checkpoint is a delta on the chain
// tip rather than a root. Called under ckptMu.
func (s *Server) cutDelta(forceFull bool) bool {
	st := &s.chain
	return s.cfg.DeltaCheckpoints && !forceFull && !st.poisoned &&
		st.tipID != "" && st.depth < s.cfg.FullEvery
}

// advance makes the durable checkpoint described by m the chain tip.
func (st *chainState) advance(m snapshot.Meta) {
	st.tipID, st.depth = m.ID, m.Depth
	if m.ParentID == "" {
		st.poisoned = false
	}
}
