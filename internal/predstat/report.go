package predstat

import (
	"sort"
	"strings"
)

// PCReport is one PC's predictability summary. Events, the last-value
// and stride ceilings and the realized accuracy cover the events the
// tracker observed; the context ceilings and the entropy cover every
// event the bank's FCMs have counted, history restored from a checkpoint
// included (CeilEvents).
type PCReport struct {
	PC     uint64 `json:"pc"`
	Events uint64 `json:"events"`
	// Class is the paper's sequence-class label of the trailing window
	// (C, S, NS, RS, RNS or ?).
	Class string `json:"class"`
	// EntropyBits is the plug-in conditional entropy of the next value
	// given its context at the top order of the bank's highest-order FCM,
	// in bits/value: 0 means perfectly predictable given context.
	EntropyBits float64 `json:"entropy_bits"`
	// Ceiling is the best achievable hit rate across all tracked
	// predictor classes (last-value, stride, each order-k context).
	Ceiling    float64 `json:"ceiling"`
	CeilLast   float64 `json:"ceil_last_value"`
	CeilStride float64 `json:"ceil_stride"`
	// CeilOrder holds the exact order-k context ceiling for each order k
	// the bank has an FCM for, keyed by k.
	CeilOrder map[int]float64 `json:"ceil_order"`
	// CeilEvents is the number of events the highest-order FCM's top
	// order has counted at this PC, which its ceiling and EntropyBits
	// cover; a lower order-k ceiling covers up to K−k more.
	CeilEvents uint64 `json:"ceil_events"`
	// BestPred and BestAccuracy identify the realized winner.
	BestPred     string  `json:"best_pred"`
	BestAccuracy float64 `json:"best_accuracy"`
	// Gap = Ceiling − BestAccuracy: how much headroom the bank leaves.
	Gap float64 `json:"gap"`
}

// PredGap attributes the ceiling-gap to one predictor: its realized hits
// versus the ceiling of its own class (last-value predictors against the
// last-value ceiling, stride against stride, order-k FCMs against the
// order-k context ceiling, other names against the best).
type PredGap struct {
	Name   string `json:"name"`
	Events uint64 `json:"events"`
	Hits   uint64 `json:"hits"`
	// Gap is (Σ ceiling·events − Σ hits)/Σ events over reported PCs.
	Gap float64 `json:"gap"`
	// CeilWeighted is Σ ceiling·events, kept for exact merging.
	CeilWeighted float64 `json:"-"`
}

// ClassStat aggregates the reported PCs of one sequence class: how many
// events they carry, the events-weighted best ceiling their streams
// permit, and the events-weighted best accuracy the bank realized — the
// per-class accuracy-vs-ceiling comparison the paper's taxonomy frames.
type ClassStat struct {
	PCs    int    `json:"pcs"`
	Events uint64 `json:"events"`
	// Ceiling, Accuracy and EntropyBits are events-weighted means over
	// the class's reported PCs (each PC contributes its best ceiling, its
	// best realized predictor accuracy, and its top-order entropy).
	Ceiling     float64 `json:"ceiling"`
	Accuracy    float64 `json:"accuracy"`
	EntropyBits float64 `json:"entropy_bits"`
	// CeilW, AccW and EntW are the Σ value·events sums, kept for merging.
	CeilW float64 `json:"-"`
	AccW  float64 `json:"-"`
	EntW  float64 `json:"-"`
}

// Report is a mergeable predictability summary over every PC a Tracker
// (or a set of shard trackers) has seen.
type Report struct {
	Preds []string `json:"preds"`
	// Events and PCs cover everything observed; Reported counts only
	// PCs with ≥ MinEvents, which all per-PC statistics are limited to.
	Events   uint64 `json:"events"`
	PCs      int    `json:"pcs"`
	Reported int    `json:"reported_pcs"`
	// ClassEvents tallies events by the sequence class of each PC's
	// trailing window (all tracked PCs, not just reported ones).
	ClassEvents map[string]uint64 `json:"class_events"`
	// Classes aggregates accuracy vs ceiling per sequence class over
	// reported PCs only.
	Classes   map[string]*ClassStat `json:"classes"`
	GapByPred []PredGap             `json:"gap_by_pred"`
	// Hardest and Easiest rank reported PCs by conditional entropy.
	Hardest []PCReport `json:"hardest"`
	Easiest []PCReport `json:"easiest"`
	// EntropyBits holds one top-order entropy sample per reported PC,
	// for histogram exposition; excluded from JSON.
	EntropyBits []float64 `json:"-"`
}

// ClassLabels are the sequence-class labels in presentation order.
var ClassLabels = []string{"C", "S", "NS", "RS", "RNS", "?"}

// ceilingIndex classifies a predictor name into the ceiling it should be
// judged against: 0 last-value, 1 stride, 2+o order-o context, -1 best.
func ceilingIndex(name string) int {
	switch {
	case strings.HasPrefix(name, "fcm"):
		d := 0
		for _, r := range name {
			if r >= '0' && r <= '9' {
				d = d*10 + int(r-'0')
				break // first digit run is the order
			}
		}
		return 2 + d
	case strings.HasPrefix(name, "l"):
		return 0
	case strings.HasPrefix(name, "s"):
		return 1
	default:
		return -1 // unknown names: judge against the best ceiling
	}
}

// Report builds a summary, ranking at most topN hardest and easiest PCs.
// The context ceilings are read from each bound FCM's per-PC sums, and
// the entropies from one pass over the highest-order FCM's top-order
// contexts. Cold path: allocates freely.
func (t *Tracker) Report(topN int) *Report {
	if topN <= 0 {
		topN = 10
	}
	r := &Report{
		Preds:       append([]string(nil), t.names...),
		Events:      t.events,
		PCs:         t.idx.Len(),
		ClassEvents: make(map[string]uint64, len(ClassLabels)),
		Classes:     make(map[string]*ClassStat, len(ClassLabels)),
		GapByPred:   make([]PredGap, t.npred),
	}
	for i, n := range t.names {
		r.GapByPred[i].Name = n
	}
	var entropy map[uint64]float64
	if len(t.fcms) > 0 {
		entropy = t.fcms[len(t.fcms)-1].TopOrderEntropy()
	}
	var all []PCReport
	for h := int32(0); int(h) < len(t.pcs); h++ {
		s := &t.st[h]
		class := t.classOf(h).String()
		r.ClassEvents[class] += s.events
		if s.events < t.cfg.MinEvents {
			continue
		}
		pc := t.pcs[h]
		ceilLV, ceilSt := s.ceilings()
		pr := PCReport{
			PC:          pc,
			Events:      s.events,
			Class:       class,
			EntropyBits: entropy[pc],
			Ceiling:     max(ceilLV, ceilSt),
			CeilLast:    ceilLV,
			CeilStride:  ceilSt,
			CeilOrder:   make(map[int]float64, len(t.fcms)),
		}
		for i, f := range t.fcms {
			c, events, ok := orderCeiling(f, pc)
			if ok {
				pr.CeilOrder[f.Order()] = c
				pr.Ceiling = max(pr.Ceiling, c)
			}
			if i == len(t.fcms)-1 {
				pr.CeilEvents = events
			}
		}
		for i := 0; i < t.npred; i++ {
			hits := t.predHits[int(h)*t.npred+i]
			acc := float64(hits) / float64(s.events)
			if acc > pr.BestAccuracy || pr.BestPred == "" {
				pr.BestAccuracy, pr.BestPred = acc, t.names[i]
			}
			g := &r.GapByPred[i]
			g.Events += s.events
			g.Hits += hits
			ceil := pr.Ceiling
			switch ci := ceilingIndex(t.names[i]); {
			case ci == 0:
				ceil = ceilLV
			case ci == 1:
				ceil = ceilSt
			case ci >= 2:
				if c, ok := pr.CeilOrder[ci-2]; ok {
					ceil = c
				}
			}
			g.CeilWeighted += ceil * float64(s.events)
		}
		pr.Gap = pr.Ceiling - pr.BestAccuracy
		cs := r.Classes[pr.Class]
		if cs == nil {
			cs = &ClassStat{}
			r.Classes[pr.Class] = cs
		}
		cs.PCs++
		cs.Events += s.events
		cs.CeilW += pr.Ceiling * float64(s.events)
		cs.AccW += pr.BestAccuracy * float64(s.events)
		cs.EntW += pr.EntropyBits * float64(s.events)
		r.Reported++
		r.EntropyBits = append(r.EntropyBits, pr.EntropyBits)
		all = append(all, pr)
	}
	for i := range r.GapByPred {
		g := &r.GapByPred[i]
		if g.Events > 0 {
			g.Gap = (g.CeilWeighted - float64(g.Hits)) / float64(g.Events)
		}
	}
	finalizeClasses(r)
	rankInto(r, all, topN)
	return r
}

// finalizeClasses turns each class's weighted sums into means.
func finalizeClasses(r *Report) {
	for _, cs := range r.Classes {
		if cs.Events > 0 {
			cs.Ceiling = cs.CeilW / float64(cs.Events)
			cs.Accuracy = cs.AccW / float64(cs.Events)
			cs.EntropyBits = cs.EntW / float64(cs.Events)
		}
	}
}

// rankInto fills r.Hardest/r.Easiest from the full PC list.
func rankInto(r *Report, all []PCReport, topN int) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].EntropyBits != all[j].EntropyBits {
			return all[i].EntropyBits > all[j].EntropyBits
		}
		return all[i].PC < all[j].PC
	})
	n := topN
	if n > len(all) {
		n = len(all)
	}
	r.Hardest = append([]PCReport(nil), all[:n]...)
	r.Easiest = make([]PCReport, 0, n)
	for i := len(all) - 1; i >= len(all)-n; i-- {
		r.Easiest = append(r.Easiest, all[i])
	}
}

// Merge folds o into r (predictor lists must match), keeping at most topN
// entries in each ranking. Used to aggregate per-shard reports at scrape.
func (r *Report) Merge(o *Report, topN int) {
	if o == nil {
		return
	}
	if len(r.Preds) == 0 {
		r.Preds = append([]string(nil), o.Preds...)
		r.GapByPred = make([]PredGap, len(o.GapByPred))
		for i := range o.GapByPred {
			r.GapByPred[i].Name = o.GapByPred[i].Name
		}
	}
	r.Events += o.Events
	r.PCs += o.PCs
	r.Reported += o.Reported
	if r.ClassEvents == nil {
		r.ClassEvents = make(map[string]uint64, len(ClassLabels))
	}
	for k, v := range o.ClassEvents {
		r.ClassEvents[k] += v
	}
	if r.Classes == nil {
		r.Classes = make(map[string]*ClassStat, len(ClassLabels))
	}
	for k, ocs := range o.Classes {
		cs := r.Classes[k]
		if cs == nil {
			cs = &ClassStat{}
			r.Classes[k] = cs
		}
		cs.PCs += ocs.PCs
		cs.Events += ocs.Events
		cs.CeilW += ocs.CeilW
		cs.AccW += ocs.AccW
		cs.EntW += ocs.EntW
	}
	finalizeClasses(r)
	for i := range r.GapByPred {
		if i >= len(o.GapByPred) {
			break
		}
		g, og := &r.GapByPred[i], &o.GapByPred[i]
		g.Events += og.Events
		g.Hits += og.Hits
		g.CeilWeighted += og.CeilWeighted
		if g.Events > 0 {
			g.Gap = (g.CeilWeighted - float64(g.Hits)) / float64(g.Events)
		}
	}
	r.EntropyBits = append(r.EntropyBits, o.EntropyBits...)
	all := append(r.Hardest, o.Hardest...)
	all = append(all, r.Easiest...)
	all = append(all, o.Easiest...)
	seen := make(map[uint64]bool, len(all))
	uniq := all[:0]
	for _, p := range all {
		if !seen[p.PC] {
			seen[p.PC] = true
			uniq = append(uniq, p)
		}
	}
	rankInto(r, uniq, topN)
}
