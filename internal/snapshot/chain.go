package snapshot

// Chain resolution: materializing `root + deltas → Snapshot`. A delta
// holds, per shard and predictor, only the records that changed since its
// parent, so resolving one walks parent IDs back to the chain's root,
// loads each root blob into a fresh predictor from the registry, applies
// every delta's blob in chain order and saves the result: the returned
// blobs are exactly the SaveState bytes the live predictors had at the
// tip's cut. Every file on the way is CRC-verified when read, and every
// apply validates its input, so a corrupt or incomplete chain is
// rejected rather than restored.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/core"
)

// ChainInfo describes how a checkpoint was materialized.
type ChainInfo struct {
	// Files is the resolved chain, root first, tip last. A root is a
	// single-element chain.
	Files []string
	// Depth is the number of delta links in the chain (0 for a root).
	Depth int
	// Records holds, per delta (Records[i] for Files[i+1]), how many table
	// entries it carried over all shards and predictors: per-PC records
	// for the per-PC predictors, contexts for the FCMs.
	Records []int
}

// ResolveChain reads the checkpoint at path and materializes its full
// state. A root is returned as read; a delta has its chain walked
// (parents are located by content ID in the same directory) and its
// predictor state rebuilt through the registry, one goroutine per shard.
// The returned Snapshot carries the tip's ID, tallies, events and PC
// sets with complete SaveState blobs and no parent, so every consumer of
// full snapshots (restore, warm replay, vpstate) works on chains
// unchanged.
func ResolveChain(path string) (*Snapshot, *ChainInfo, error) {
	dir := filepath.Dir(path)
	// Walk tip → root, prepending so the slices end up root-first.
	var files []string
	var chain []*Snapshot
	seen := make(map[string]bool)
	cur, wantID := path, ""
	for {
		s, err := ReadFile(cur)
		if err != nil {
			return nil, nil, err
		}
		// A parent is found by the ID in its file name; its content must
		// carry that ID too, or the records would apply to another state.
		if wantID != "" && s.Meta.ID != wantID {
			return nil, nil, fmt.Errorf("%w: %s holds checkpoint %s, not parent %s",
				ErrChecksum, filepath.Base(cur), s.Meta.ID, wantID)
		}
		if seen[s.Meta.ID] {
			return nil, nil, fmt.Errorf("snapshot: checkpoint chain cycle at id %s", s.Meta.ID)
		}
		seen[s.Meta.ID] = true
		files = append([]string{cur}, files...)
		chain = append([]*Snapshot{s}, chain...)
		if len(chain) > maxChainDepth+1 {
			return nil, nil, fmt.Errorf("snapshot: checkpoint chain longer than %d", maxChainDepth)
		}
		if s.Meta.ParentID == "" {
			break
		}
		parent, err := FindByID(dir, s.Meta.ParentID)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: chain broken at %s: parent %s: %w",
				filepath.Base(cur), s.Meta.ParentID, err)
		}
		cur, wantID = parent, s.Meta.ParentID
	}
	info := &ChainInfo{Files: files, Depth: len(chain) - 1}
	if len(chain) == 1 {
		return chain[0], info, nil
	}

	// Each link must extend its parent: depth increments along the walk
	// and the shard layout and predictor set agree, or the records cannot
	// mean what the tip thinks they mean.
	for i := 1; i < len(chain); i++ {
		p, c := chain[i-1], chain[i]
		if c.Meta.Depth != p.Meta.Depth+1 {
			return nil, nil, fmt.Errorf("snapshot: chain depth %d follows depth %d (%s after %s)",
				c.Meta.Depth, p.Meta.Depth, c.Meta.ID, p.Meta.ID)
		}
		if c.Meta.Shards != p.Meta.Shards || !slices.Equal(c.Meta.Predictors, p.Meta.Predictors) {
			return nil, nil, fmt.Errorf("snapshot: chain shard layout or predictor set changed at %s", c.Meta.ID)
		}
	}

	tip := chain[len(chain)-1]
	out := &Snapshot{Meta: tip.Meta, Shards: make([]ShardState, len(tip.Shards))}
	out.Meta.ParentID, out.Meta.Depth = "", 0
	records := make([][]int, len(tip.Shards))
	errs := make([]error, len(tip.Shards))
	var wg sync.WaitGroup
	for si := range tip.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			records[si] = make([]int, len(chain)-1)
			out.Shards[si], errs[si] = resolveShard(chain, files, si, records[si])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	info.Records = make([]int, len(chain)-1)
	for _, rs := range records {
		for i, n := range rs {
			info.Records[i] += n
		}
	}
	return out, info, nil
}

// resolveShard rebuilds shard si of the chain's tip: each predictor is
// loaded from the root, has every delta applied in order (adding the
// records each carried to records) and is saved back, one predictor at a
// time so only one is ever held.
func resolveShard(chain []*Snapshot, files []string, si int, records []int) (ShardState, error) {
	tip := chain[len(chain)-1].Shards[si]
	sh := ShardState{Shard: si, Events: tip.Events, PCs: tip.PCs, Preds: make([]PredState, len(tip.Preds))}
	for pi, ps := range tip.Preds {
		fac, ok := core.FactoryByName(ps.Name)
		if !ok {
			return sh, fmt.Errorf("snapshot: predictor %q not in local registry", ps.Name)
		}
		p := fac.New()
		if err := p.LoadState(bytes.NewReader(chain[0].Shards[si].Preds[pi].State)); err != nil {
			return sh, fmt.Errorf("snapshot: %s shard %d: %w", filepath.Base(files[0]), si, err)
		}
		for li, d := range chain[1:] {
			n, err := p.ApplyDelta(bytes.NewReader(d.Shards[si].Preds[pi].State))
			if err != nil {
				return sh, fmt.Errorf("snapshot: %s shard %d: %w", filepath.Base(files[li+1]), si, err)
			}
			records[li] += n
		}
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			return sh, fmt.Errorf("snapshot: shard %d %q: %w", si, ps.Name, err)
		}
		sh.Preds[pi] = PredState{Name: ps.Name, Correct: ps.Correct, Total: ps.Total, State: buf.Bytes()}
	}
	return sh, nil
}
