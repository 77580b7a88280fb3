package snapshot

// Loading: turning checkpoint bytes into live predictors. A root's blobs
// are full state streams; a delta holds, per shard and predictor, only
// the records that changed since its parent. Load is the one place either
// is decoded: each predictor comes from the registry, loads the root's
// blob and applies every delta's blob in chain order, so it ends up with
// exactly the state the live predictor had at the tip's cut. ResolveChain
// reads a chain from disk for it: it walks parent IDs back to the root,
// and every file on the way is CRC-verified when read. Every load and
// apply validates its input, so a corrupt or incomplete chain is rejected
// rather than restored.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

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

// Loaded is a checkpoint's state in live predictors, as Load returns it.
type Loaded struct {
	// Meta is the tip's, with its parent link cleared: the loaded state
	// is complete, like a root's.
	Meta Meta
	// Shards holds the tip's shard sections as read: their events, PC
	// sets and tallies are the loaded state's. A delta tip's State blobs
	// carry only its own records.
	Shards []ShardState
	// Preds holds the loaded predictors, [shard][bank order], until Take
	// hands them to their owner.
	Preds [][]core.Predictor
	// Dur is how long Load took, reading excluded.
	Dur time.Duration
}

// Take hands the loaded predictors over to the one bank that will step
// them: the first call returns them, every later call an error, so two
// banks never share live predictors.
func (l *Loaded) Take() ([][]core.Predictor, error) {
	if l.Preds == nil {
		return nil, fmt.Errorf("snapshot: the state of checkpoint %s is already installed", l.Meta.ID)
	}
	preds := l.Preds
	l.Preds = nil
	return preds, nil
}

// Load builds the predictors of a checkpoint: chain is a root followed
// by the deltas on it in order, each naming the one before it as its
// parent (ResolveChain reads such a chain from disk). Each name is looked
// up in the registry once, and the shards load in parallel, one
// goroutine each. Load also returns how many records each delta carried
// (records[i] for chain[i+1]). A delta given as the root is refused: its
// blobs hold only what changed since its parent.
func Load(chain ...*Snapshot) (_ *Loaded, records []int, _ error) {
	t0 := time.Now()
	root, tip := chain[0], chain[len(chain)-1]
	if root.Meta.ParentID != "" {
		return nil, nil, fmt.Errorf("snapshot: checkpoint %s is a delta on %s; resolve its chain (snapshot.ResolveChain) to load it",
			root.Meta.ID, root.Meta.ParentID)
	}
	// Each link must extend its parent: depth increments along the chain
	// and the shard layout and predictor set agree, or the records cannot
	// mean what the tip thinks they mean.
	for i := 1; i < len(chain); i++ {
		p, c := chain[i-1].Meta, chain[i].Meta
		if c.Depth != p.Depth+1 {
			return nil, nil, fmt.Errorf("snapshot: chain depth %d follows depth %d (%s after %s)",
				c.Depth, p.Depth, c.ID, p.ID)
		}
		if c.Shards != p.Shards || !slices.Equal(c.Predictors, p.Predictors) {
			return nil, nil, fmt.Errorf("snapshot: chain shard layout or predictor set changed at %s", c.ID)
		}
	}
	facs := make([]core.NamedFactory, len(root.Meta.Predictors))
	for i, name := range root.Meta.Predictors {
		fac, ok := core.FactoryByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("snapshot: predictor %q not in local registry", name)
		}
		facs[i] = fac
	}

	l := &Loaded{Meta: tip.Meta, Shards: tip.Shards, Preds: make([][]core.Predictor, len(tip.Shards))}
	l.Meta.ParentID, l.Meta.Depth = "", 0
	shardRecords := make([][]int, len(tip.Shards))
	errs := make([]error, len(tip.Shards))
	var wg sync.WaitGroup
	for si := range tip.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardRecords[si] = make([]int, len(chain)-1)
			l.Preds[si], errs[si] = loadShard(chain, facs, si, shardRecords[si])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	records = make([]int, len(chain)-1)
	for _, rs := range shardRecords {
		for i, n := range rs {
			records[i] += n
		}
	}
	l.Dur = time.Since(t0)
	return l, records, nil
}

// loadShard builds shard si's predictors: each loads the root's blob and
// applies every delta's in order, adding the records each carried to
// records.
func loadShard(chain []*Snapshot, facs []core.NamedFactory, si int, records []int) ([]core.Predictor, error) {
	preds := make([]core.Predictor, len(facs))
	for pi, fac := range facs {
		p := fac.New()
		for li, c := range chain {
			r := bytes.NewReader(c.Shards[si].Preds[pi].State)
			var err error
			if li == 0 {
				err = p.LoadState(r)
			} else {
				var n int
				n, err = p.ApplyDelta(r)
				records[li-1] += n
			}
			if err != nil {
				return nil, fmt.Errorf("snapshot: checkpoint %s shard %d %q: %w", c.Meta.ID, si, fac.Name, err)
			}
		}
		preds[pi] = p
	}
	return preds, nil
}

// ResolveChain reads the checkpoint at path and loads its state: a root
// alone, or a delta with its chain (parents are located by content ID in
// the same directory) through Load.
func ResolveChain(path string) (*Loaded, *ChainInfo, error) {
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
	l, records, err := Load(chain...)
	if err != nil {
		return nil, nil, err
	}
	return l, &ChainInfo{Files: files, Depth: len(chain) - 1, Records: records}, nil
}
