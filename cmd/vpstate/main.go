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
// Every command loads a checkpoint the way a restore does
// (snapshot.ResolveChain: each blob decoded into a predictor from the
// registry), so a checkpoint that prints is one that restores. info
// reports table occupancy: static PCs, total entries and encoded bytes
// (each loaded predictor's SaveState size), and optionally the hottest
// PCs by entry count. diff shows how state evolved between two
// checkpoints: events served, accuracy drift, table growth, and which PCs
// appeared, vanished or changed. export emits everything as JSON for
// scripting, with -pcs including the full per-PC entry counts. vpstate
// holds one checkpoint's loaded state at a time, as much as one restored
// server holds: diff summarizes the old checkpoint before it loads the
// new one.
//
// All three commands accept any checkpoint: a full one, or a delta whose
// parent chain is resolved from the same directory (each link
// CRC-verified and applied through the predictor registry). For a delta,
// info lists every file of the chain with the records each delta carried
// (per-PC records and FCM contexts), diff notes each side's chain, and
// export adds the chain to its JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

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

// predAgg is one predictor's state aggregated across shards.
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

// exportShard is one shard's summary, and its JSON shape in export
// output.
type exportShard struct {
	Shard      int    `json:"shard"`
	Events     uint64 `json:"events"`
	UniquePCs  int    `json:"unique_pcs"`
	StateBytes int    `json:"state_bytes"`
}

// summary is what vpstate reports of one checkpoint: its metadata and
// chain, every predictor aggregated across shards and every shard's
// totals.
type summary struct {
	meta   snapshot.Meta
	chain  *snapshot.ChainInfo
	aggs   []*predAgg
	shards []exportShard
}

// byteCount is a writer that only counts: a SaveState stream's size,
// without holding the stream.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// summarize loads the checkpoint at path (a delta with its parent chain,
// resolved from the same directory) and summarizes it; the loaded
// predictors are dropped on return.
func summarize(path string) (*summary, error) {
	l, chain, err := snapshot.ResolveChain(path)
	if err != nil {
		return nil, err
	}
	sum := &summary{meta: l.Meta, chain: chain, aggs: make([]*predAgg, len(l.Meta.Predictors))}
	for i, name := range l.Meta.Predictors {
		sum.aggs[i] = &predAgg{Name: name, PerPC: make(map[uint64]int)}
	}
	for si, sh := range l.Shards {
		es := exportShard{Shard: sh.Shard, Events: sh.Events, UniquePCs: len(sh.PCs)}
		for pi, p := range l.Preds[si] {
			var size byteCount
			if err := p.SaveState(&size); err != nil {
				return nil, fmt.Errorf("shard %d predictor %q: %w", si, p.Name(), err)
			}
			agg := sum.aggs[pi]
			agg.Correct += sh.Preds[pi].Correct
			agg.Total += sh.Preds[pi].Total
			agg.StateBytes += int(size)
			es.StateBytes += int(size)
			static, total := p.TableEntries()
			agg.StaticPCs += static
			agg.TableEntries += total
			for pc, n := range p.PCEntries() {
				agg.PerPC[pc] += n // shards own disjoint PCs
			}
		}
		sum.shards = append(sum.shards, es)
	}
	for _, agg := range sum.aggs {
		if agg.Total > 0 {
			agg.AccuracyPct = 100 * float64(agg.Correct) / float64(agg.Total)
		}
	}
	return sum, nil
}

// mustSummarize is summarize for the commands: an error ends vpstate.
func mustSummarize(path string) *summary {
	sum, err := summarize(path)
	if err != nil {
		fatal(err)
	}
	return sum
}

func printMeta(sum *summary) {
	m := sum.meta
	fmt.Printf("snapshot:   %s (format v%d)\n", m.ID, m.FormatVersion)
	fmt.Printf("created:    %s\n", time.Unix(0, m.CreatedUnixNano).UTC().Format(time.RFC3339Nano))
	fmt.Printf("events:     %d\n", m.Events)
	fmt.Printf("shards:     %d\n", m.Shards)
	var pcs, state int
	for _, sh := range sum.shards {
		pcs, state = pcs+sh.UniquePCs, state+sh.StateBytes
	}
	fmt.Printf("unique PCs: %d\n", pcs)
	fmt.Printf("state:      %d bytes encoded\n", state)
	printChain(sum.chain)
}

// printChain summarizes a checkpoint's chain: its kind and, for a delta,
// every file of the chain with its size and the records each delta
// carried.
func printChain(chain *snapshot.ChainInfo) {
	if chain.Depth == 0 {
		fmt.Printf("kind:       full\n")
		return
	}
	fmt.Printf("kind:       delta (chain depth %d, %d files)\n", chain.Depth, len(chain.Files))
	for i, f := range chain.Files {
		var size int64
		if fi, err := os.Stat(f); err == nil {
			size = fi.Size()
		}
		if i == 0 {
			fmt.Printf("  full   %s %12d bytes\n", filepath.Base(f), size)
		} else {
			fmt.Printf("  delta  %s %12d bytes %10d records\n", filepath.Base(f), size, chain.Records[i-1])
		}
	}
}

// chainSuffix is the compact chain annotation diff appends to each
// side's header line.
func chainSuffix(chain *snapshot.ChainInfo) string {
	if chain.Depth == 0 {
		return "  [full]"
	}
	return fmt.Sprintf("  [delta chain: depth %d, %d files, %d records in the tip]",
		chain.Depth, len(chain.Files), chain.Records[len(chain.Records)-1])
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	top := fs.Int("top", 0, "also list the N PCs holding the most table entries")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	sum := mustSummarize(fs.Arg(0))
	printMeta(sum)
	fmt.Printf("\n%-8s %9s %12s %12s %12s %12s\n", "pred", "acc%", "correct", "static-pcs", "entries", "bytes")
	for _, a := range sum.aggs {
		fmt.Printf("%-8s %8.2f%% %12d %12d %12d %12d\n",
			a.Name, a.AccuracyPct, a.Correct, a.StaticPCs, a.TableEntries, a.StateBytes)
	}
	fmt.Printf("\nper shard:\n")
	for _, sh := range sum.shards {
		fmt.Printf("  shard %-3d %12d events %10d pcs %12d bytes\n", sh.Shard, sh.Events, sh.UniquePCs, sh.StateBytes)
	}
	if *top > 0 {
		byPC := make(map[uint64]int)
		for _, a := range sum.aggs {
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
	// One checkpoint loaded at a time: the old one is summarized, and its
	// predictors dropped, before the new one loads.
	oldSum := mustSummarize(fs.Arg(0))
	newSum := mustSummarize(fs.Arg(1))
	oldMeta, newMeta := oldSum.meta, newSum.meta
	fmt.Printf("old: %s  %12d events  (%s)%s\n", oldMeta.ID, oldMeta.Events,
		time.Unix(0, oldMeta.CreatedUnixNano).UTC().Format(time.RFC3339), chainSuffix(oldSum.chain))
	fmt.Printf("new: %s  %12d events  (%s)%s\n", newMeta.ID, newMeta.Events,
		time.Unix(0, newMeta.CreatedUnixNano).UTC().Format(time.RFC3339), chainSuffix(newSum.chain))
	fmt.Printf("     %+d events\n\n", int64(newMeta.Events)-int64(oldMeta.Events))

	oldAggs, newAggs := oldSum.aggs, newSum.aggs
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

func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	withPCs := fs.Bool("pcs", false, "include per-PC entry counts (can be large)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	sum := mustSummarize(fs.Arg(0))

	type exportPred struct {
		*predAgg
		PCs map[string]int `json:"pc_entries,omitempty"`
	}
	type exportChain struct {
		Depth int      `json:"depth"`
		Files []string `json:"files"`
		// Records holds, per delta, the records it carried.
		Records []int `json:"records"`
	}
	out := struct {
		Meta       snapshot.Meta `json:"meta"`
		Created    string        `json:"created"`
		Chain      *exportChain  `json:"chain,omitempty"`
		Shards     []exportShard `json:"shards"`
		Predictors []exportPred  `json:"predictors"`
	}{
		Meta:    sum.meta,
		Created: time.Unix(0, sum.meta.CreatedUnixNano).UTC().Format(time.RFC3339Nano),
		Shards:  sum.shards,
	}
	if chain := sum.chain; chain.Depth > 0 {
		out.Chain = &exportChain{Depth: chain.Depth, Files: chain.Files, Records: chain.Records}
	}
	for _, a := range sum.aggs {
		ep := exportPred{predAgg: a}
		if *withPCs {
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
