package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/predstat"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// Offline layer replays, run after serving ends: the same per-shard
// batches the server's banks stepped, through core.Bank alone, through
// one predictor at a time, and with a predstat.Tracker attached.

// soa is one shard sub-batch in the layout core.Bank consumes.
type soa struct{ pcs, vals []uint64 }

// toSOA converts events to SoA.
func toSOA(evs []serve.Event) soa {
	b := soa{pcs: make([]uint64, len(evs)), vals: make([]uint64, len(evs))}
	for i, ev := range evs {
		b.pcs[i], b.vals[i] = ev.PC, ev.Value
	}
	return b
}

// bucket splits one request by serve.ShardOf, stably, the way the
// server's dispatch does, appending each non-empty part to its shard.
func bucket(dst [][]soa, evs []serve.Event) {
	parts := make([][]serve.Event, len(dst))
	for _, ev := range evs {
		i := serve.ShardOf(ev.PC, len(dst))
		parts[i] = append(parts[i], ev)
	}
	for i, p := range parts {
		if len(p) > 0 {
			dst[i] = append(dst[i], toSOA(p))
		}
	}
}

// standardNames is the server's default predictor bank.
func standardNames() []string {
	var out []string
	for _, f := range core.StandardFactories() {
		out = append(out, f.Name)
	}
	return out
}

// bankMaker builds one bank per shard holding the named predictors, in
// the state the served banks had when the batches began.
type bankMaker func(names []string) ([]*core.Bank, error)

// restoredBanks makes banks from a snapshot's per-shard predictor state.
func restoredBanks(snap *snapshot.Snapshot) bankMaker {
	return func(names []string) ([]*core.Bank, error) {
		banks := make([]*core.Bank, len(snap.Shards))
		for si, sh := range snap.Shards {
			var preds []core.Predictor
			for _, name := range names {
				p, err := newPredictor(name)
				if err != nil {
					return nil, err
				}
				found := false
				for _, ps := range sh.Preds {
					if ps.Name == name {
						found = true
						if err := p.(core.Stateful).LoadState(bytes.NewReader(ps.State)); err != nil {
							return nil, fmt.Errorf("shard %d %s: %w", si, name, err)
						}
					}
				}
				if !found {
					return nil, fmt.Errorf("snapshot has no predictor %s", name)
				}
				preds = append(preds, p)
			}
			banks[si] = core.NewBank(preds...)
		}
		return banks, nil
	}
}

// warmedBanks makes fresh banks and steps the warm-up batches into them.
func warmedBanks(shards int, warm [][]soa) bankMaker {
	return func(names []string) ([]*core.Bank, error) {
		banks := make([]*core.Bank, shards)
		for si := range banks {
			var preds []core.Predictor
			for _, name := range names {
				p, err := newPredictor(name)
				if err != nil {
					return nil, err
				}
				preds = append(preds, p)
			}
			banks[si] = core.NewBank(preds...)
			for _, b := range warm[si] {
				banks[si].StepBatch(b.pcs, b.vals)
			}
		}
		return banks, nil
	}
}

func newPredictor(name string) (core.Predictor, error) {
	f, ok := core.FactoryByName(name)
	if !ok {
		return nil, fmt.Errorf("predictor %s not registered", name)
	}
	return f.New(), nil
}

// stepAll replays every shard's batches through its bank and returns the
// time spent inside StepBatchCollect.
func stepAll(e *env, name string, banks []*core.Bank, batches [][]soa) time.Duration {
	counts := make([]uint64, len(banks[0].Predictors()))
	sp := e.tr.begin(name, 0, 0, 0)
	var total int64
	for si, bank := range banks {
		for _, b := range batches[si] {
			t := now()
			bank.StepBatchCollect(b.pcs, b.vals, counts, nil)
			total += now() - t
		}
	}
	e.tr.end(sp)
	return time.Duration(total)
}

// replayLayers measures the core and predstat layers over the batches.
func replayLayers(e *env, mk bankMaker, batches [][]soa) error {
	events := 0
	for _, l := range batches {
		for _, b := range l {
			events += len(b.pcs)
		}
	}
	names := standardNames()
	perEvent := func(d time.Duration) float64 { return float64(d) / float64(events) }

	banks, err := mk(names)
	if err != nil {
		return err
	}
	liveHeapMB()
	rt0 := readRT()
	bankD := stepAll(e, "core.bank.step_batch", banks, batches)
	rt1 := readRT()
	e.layerMetric("core.bank_ns_per_event", perEvent(bankD), "ns")
	e.layerMetric("core.alloc_bytes_per_event", float64(rt1.allocBytes-rt0.allocBytes)/float64(events), "B")
	contexts, fcm3 := 0, slices.Index(names, "fcm3")
	for _, b := range banks {
		if s, ok := b.Predictors()[fcm3].(core.Sized); ok && fcm3 >= 0 {
			_, t := s.TableEntries()
			contexts += t
		}
	}
	e.layerMetric("core.fcm3_contexts", float64(contexts), "count")

	for _, name := range names {
		banks, err = mk([]string{name})
		if err != nil {
			return err
		}
		liveHeapMB()
		d := stepAll(e, "core."+name+".step_batch", banks, batches)
		e.layerMetric("core."+name+"_ns_per_event", perEvent(d), "ns")
	}

	banks, err = mk(names)
	if err != nil {
		return err
	}
	for si, b := range banks {
		b.SetObserver(predstat.NewTracker(predstat.Config{PredNames: names, Shard: si}))
	}
	liveHeapMB()
	obsD := stepAll(e, "predstat.observed.step_batch", banks, batches)
	e.layerMetric("predstat.observe_ns_per_event", perEvent(obsD)-perEvent(bankD), "ns")
	return nil
}
