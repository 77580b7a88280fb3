// Command vpstate inspects predictor-state snapshots offline: the
// durable checkpoints vpserve writes (see internal/snapshot) opened,
// verified and summarized without a running server.
//
// Usage:
//
//	vpstate info [-top N] FILE         metadata, per-predictor occupancy and accuracy
//	vpstate diff [-top N] OLD NEW      drift between two snapshots of one server
//	vpstate export [-pcs] FILE         machine-readable JSON dump
//
// info reconstructs every predictor from its state blob (so it also
// end-to-end verifies that the snapshot restores) and reports table
// occupancy: static PCs, total entries, encoded and approximate resident
// bytes, and optionally the hottest PCs by entry count. diff shows how
// state evolved between two checkpoints: events served, accuracy drift,
// table growth, and which PCs appeared, vanished or changed. export
// emits everything as JSON for scripting, with -pcs including the full
// per-PC entry counts.
//
// All three commands accept either generation of checkpoint: a v1
// .vpsnap snapshot, or a v2 .vpdelta delta whose parent chain is
// resolved from the same directory (and each link CRC-verified). For a
// delta, info additionally reports the parent ID, chain depth, file
// count, and the tip's dirty ratio — how many chunks were stored inline
// versus deduplicated to content-hash references.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "info":
		info(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	case "export":
		export(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  vpstate info [-top N] FILE
  vpstate diff [-top N] OLD NEW
  vpstate export [-pcs] FILE
`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpstate:", err)
	os.Exit(1)
}

// predAgg is one predictor's state aggregated across shards, rebuilt
// from the snapshot blobs through the registry.
type predAgg struct {
	Name         string         `json:"name"`
	Correct      uint64         `json:"correct"`
	Total        uint64         `json:"total"`
	AccuracyPct  float64        `json:"accuracy_pct"`
	StateBytes   int            `json:"state_bytes"`
	StaticPCs    int            `json:"static_pcs"`
	TableEntries int            `json:"table_entries"`
	PerPC        map[uint64]int `json:"-"`
}

// aggregate decodes every predictor blob in the snapshot. Each blob is
// loaded into a fresh registry instance, so a snapshot that prints is a
// snapshot that restores.
func aggregate(snap *snapshot.Snapshot) ([]*predAgg, error) {
	aggs := make([]*predAgg, len(snap.Meta.Predictors))
	for i, name := range snap.Meta.Predictors {
		aggs[i] = &predAgg{Name: name}
	}
	for _, sh := range snap.Shards {
		for i, ps := range sh.Preds {
			agg := aggs[i]
			agg.Correct += ps.Correct
			agg.Total += ps.Total
			agg.StateBytes += len(ps.State)
			fac, ok := core.FactoryByName(agg.Name)
			if !ok {
				return nil, fmt.Errorf("predictor %q not in local registry", agg.Name)
			}
			p := fac.New()
			if err := p.LoadState(bytes.NewReader(ps.State)); err != nil {
				return nil, fmt.Errorf("shard %d predictor %q: %w", sh.Shard, agg.Name, err)
			}
			static, total := p.TableEntries()
			agg.StaticPCs += static
			agg.TableEntries += total
			if agg.PerPC == nil {
				agg.PerPC = make(map[uint64]int)
			}
			for pc, n := range p.PCEntries() {
				agg.PerPC[pc] += n // shards own disjoint PCs
			}
		}
	}
	for _, agg := range aggs {
		if agg.Total > 0 {
			agg.AccuracyPct = 100 * float64(agg.Correct) / float64(agg.Total)
		}
	}
	return aggs, nil
}

// readSnap opens a checkpoint of either generation: a v1 snapshot as-is,
// a v2 delta with its parent chain resolved from the same directory.
func readSnap(path string) (*snapshot.Snapshot, *snapshot.ChainInfo) {
	snap, chain, err := snapshot.ResolveChain(path)
	if err != nil {
		fatal(err)
	}
	return snap, chain
}

func printMeta(snap *snapshot.Snapshot, chain *snapshot.ChainInfo) {
	m := snap.Meta
	fmt.Printf("snapshot:   %s (format v%d)\n", m.ID, m.FormatVersion)
	fmt.Printf("created:    %s\n", time.Unix(0, m.CreatedUnixNano).UTC().Format(time.RFC3339Nano))
	fmt.Printf("events:     %d\n", m.Events)
	fmt.Printf("shards:     %d\n", m.Shards)
	var pcs int
	for _, sh := range snap.Shards {
		pcs += len(sh.PCs)
	}
	fmt.Printf("unique PCs: %d\n", pcs)
	fmt.Printf("state:      %d bytes encoded\n", snap.StateBytes())
	printChain(chain)
}

// printChain summarizes a delta chain: kind, parentage, depth, and the
// tip's chunk table split into dirty (inline) and clean (referenced)
// chunks. Prints nothing for a v1 snapshot.
func printChain(chain *snapshot.ChainInfo) {
	if chain == nil || chain.Tip == nil {
		return
	}
	tip := chain.Tip
	kind := "full"
	if tip.Meta.ParentID != "" {
		kind = "delta"
		fmt.Printf("kind:       %s (parent %s)\n", kind, tip.Meta.ParentID)
	} else {
		fmt.Printf("kind:       %s\n", kind)
	}
	fmt.Printf("chain:      depth %d, %d file(s)\n", chain.Depth, len(chain.Files))
	st := tip.Stats()
	total := st.Inline + st.Refs
	if total > 0 {
		fmt.Printf("chunks:     %d dirty (%d bytes inline), %d clean refs (%d bytes deduped), %.1f%% dirty\n",
			st.Inline, st.InlineBytes, st.Refs, st.RefBytes, 100*float64(st.Inline)/float64(total))
	}
}

// chainSuffix is the compact chain annotation diff appends to each
// side's header line; empty for a v1 snapshot.
func chainSuffix(chain *snapshot.ChainInfo) string {
	if chain == nil || chain.Tip == nil {
		return ""
	}
	if chain.Tip.Meta.ParentID == "" {
		return "  [full]"
	}
	return fmt.Sprintf("  [delta chain: depth %d, %d files, parent %s]",
		chain.Depth, len(chain.Files), chain.Tip.Meta.ParentID)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	top := fs.Int("top", 0, "also list the N PCs holding the most table entries")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	snap, chain := readSnap(fs.Arg(0))
	printMeta(snap, chain)
	aggs, err := aggregate(snap)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-8s %9s %12s %12s %12s %12s\n", "pred", "acc%", "correct", "static-pcs", "entries", "bytes")
	for _, a := range aggs {
		fmt.Printf("%-8s %8.2f%% %12d %12d %12d %12d\n",
			a.Name, a.AccuracyPct, a.Correct, a.StaticPCs, a.TableEntries, a.StateBytes)
	}
	fmt.Printf("\nper shard:\n")
	for _, sh := range snap.Shards {
		var b int
		for _, ps := range sh.Preds {
			b += len(ps.State)
		}
		fmt.Printf("  shard %-3d %12d events %10d pcs %12d bytes\n", sh.Shard, sh.Events, len(sh.PCs), b)
	}
	if *top > 0 {
		byPC := make(map[uint64]int)
		for _, a := range aggs {
			for pc, n := range a.PerPC {
				byPC[pc] += n
			}
		}
		fmt.Printf("\ntop %d PCs by table entries (all predictors):\n", *top)
		for _, pe := range topEntries(byPC, *top) {
			fmt.Printf("  %#10x %8d entries\n", pe.pc, pe.n)
		}
	}
}

type pcEntry struct {
	pc uint64
	n  int
}

// topEntries returns the n largest per-PC counts, ties broken by PC.
func topEntries(m map[uint64]int, n int) []pcEntry {
	out := make([]pcEntry, 0, len(m))
	for pc, c := range m {
		out = append(out, pcEntry{pc, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].pc < out[j].pc
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	top := fs.Int("top", 10, "list the N PCs with the largest entry-count drift")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	oldSnap, oldChain := readSnap(fs.Arg(0))
	newSnap, newChain := readSnap(fs.Arg(1))
	fmt.Printf("old: %s  %12d events  (%s)%s\n", oldSnap.Meta.ID, oldSnap.Meta.Events,
		time.Unix(0, oldSnap.Meta.CreatedUnixNano).UTC().Format(time.RFC3339), chainSuffix(oldChain))
	fmt.Printf("new: %s  %12d events  (%s)%s\n", newSnap.Meta.ID, newSnap.Meta.Events,
		time.Unix(0, newSnap.Meta.CreatedUnixNano).UTC().Format(time.RFC3339), chainSuffix(newChain))
	fmt.Printf("     %+d events\n\n", int64(newSnap.Meta.Events)-int64(oldSnap.Meta.Events))

	oldAggs, err := aggregate(oldSnap)
	if err != nil {
		fatal(err)
	}
	newAggs, err := aggregate(newSnap)
	if err != nil {
		fatal(err)
	}
	oldBy := make(map[string]*predAgg, len(oldAggs))
	for _, a := range oldAggs {
		oldBy[a.Name] = a
	}
	fmt.Printf("%-8s %10s %12s %12s %12s\n", "pred", "acc%", "Δcorrect", "Δentries", "Δbytes")
	for _, nw := range newAggs {
		od := oldBy[nw.Name]
		if od == nil {
			fmt.Printf("%-8s (only in new snapshot)\n", nw.Name)
			continue
		}
		// Accuracy over just the delta window, when events advanced.
		accStr := "    --"
		if nw.Total > od.Total {
			accStr = fmt.Sprintf("%9.2f%%", 100*float64(nw.Correct-od.Correct)/float64(nw.Total-od.Total))
		}
		fmt.Printf("%-8s %10s %+12d %+12d %+12d\n", nw.Name, accStr,
			int64(nw.Correct)-int64(od.Correct),
			int64(nw.TableEntries)-int64(od.TableEntries),
			int64(nw.StateBytes)-int64(od.StateBytes))
	}
	for _, a := range oldAggs {
		found := false
		for _, nw := range newAggs {
			if nw.Name == a.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-8s (only in old snapshot)\n", a.Name)
		}
	}

	// Per-PC drift across the whole bank.
	oldPC := make(map[uint64]int)
	newPC := make(map[uint64]int)
	for _, a := range oldAggs {
		for pc, n := range a.PerPC {
			oldPC[pc] += n
		}
	}
	for _, a := range newAggs {
		for pc, n := range a.PerPC {
			newPC[pc] += n
		}
	}
	added, removed, changed := 0, 0, 0
	drift := make(map[uint64]int)
	for pc, n := range newPC {
		o, ok := oldPC[pc]
		switch {
		case !ok:
			added++
			drift[pc] = n
		case o != n:
			changed++
			drift[pc] = n - o
		}
	}
	for pc, o := range oldPC {
		if _, ok := newPC[pc]; !ok {
			removed++
			drift[pc] = -o
		}
	}
	fmt.Printf("\nper-PC drift: %d new PCs, %d grown/shrunk, %d gone (of %d)\n",
		added, changed, removed, len(newPC))
	if *top > 0 && len(drift) > 0 {
		abs := make(map[uint64]int, len(drift))
		for pc, d := range drift {
			if d < 0 {
				abs[pc] = -d
			} else {
				abs[pc] = d
			}
		}
		fmt.Printf("largest movers:\n")
		for _, pe := range topEntries(abs, *top) {
			fmt.Printf("  %#10x %+8d entries (now %d)\n", pe.pc, drift[pe.pc], newPC[pe.pc])
		}
	}
}

// exportShard is the JSON shape of one shard in export output.
type exportShard struct {
	Shard      int    `json:"shard"`
	Events     uint64 `json:"events"`
	UniquePCs  int    `json:"unique_pcs"`
	StateBytes int    `json:"state_bytes"`
}

func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	withPCs := fs.Bool("pcs", false, "include per-PC entry counts (can be large)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	snap, chain := readSnap(fs.Arg(0))
	aggs, err := aggregate(snap)
	if err != nil {
		fatal(err)
	}

	type exportPred struct {
		*predAgg
		PCs map[string]int `json:"pc_entries,omitempty"`
	}
	type exportChain struct {
		ParentID     string `json:"parent_id,omitempty"`
		Depth        int    `json:"depth"`
		Files        int    `json:"files"`
		DirtyChunks  int    `json:"dirty_chunks"`
		DirtyBytes   int    `json:"dirty_bytes"`
		CleanRefs    int    `json:"clean_refs"`
		DedupedBytes int    `json:"deduped_bytes"`
	}
	out := struct {
		Meta       snapshot.Meta `json:"meta"`
		Created    string        `json:"created"`
		Chain      *exportChain  `json:"chain,omitempty"`
		Shards     []exportShard `json:"shards"`
		Predictors []exportPred  `json:"predictors"`
	}{
		Meta:    snap.Meta,
		Created: time.Unix(0, snap.Meta.CreatedUnixNano).UTC().Format(time.RFC3339Nano),
	}
	if chain != nil && chain.Tip != nil {
		st := chain.Tip.Stats()
		out.Chain = &exportChain{
			ParentID:     chain.Tip.Meta.ParentID,
			Depth:        chain.Depth,
			Files:        len(chain.Files),
			DirtyChunks:  st.Inline,
			DirtyBytes:   st.InlineBytes,
			CleanRefs:    st.Refs,
			DedupedBytes: st.RefBytes,
		}
	}
	for _, sh := range snap.Shards {
		es := exportShard{Shard: sh.Shard, Events: sh.Events, UniquePCs: len(sh.PCs)}
		for _, ps := range sh.Preds {
			es.StateBytes += len(ps.State)
		}
		out.Shards = append(out.Shards, es)
	}
	for _, a := range aggs {
		ep := exportPred{predAgg: a}
		if *withPCs && a.PerPC != nil {
			ep.PCs = make(map[string]int, len(a.PerPC))
			for pc, n := range a.PerPC {
				ep.PCs[fmt.Sprintf("%#x", pc)] = n
			}
		}
		out.Predictors = append(out.Predictors, ep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}
