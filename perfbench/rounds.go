package main

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// The hypervisor's CPU steal moves every timing of a serve round: the
// client and the server share both vCPUs, so a request stalls whenever
// either one is descheduled: a loops round at 21% steal serves 62% of
// the events of one under 1%. Each round therefore reads the stolen
// share of CPU ticks from /proc/stat over its set-up, timed phase and
// checkpoints; a round above stealLimit is printed, discarded and run
// again, while the attempted rounds' timed phases stay within
// attemptBudget times the run's seconds.
const (
	stealLimit    = 0.03
	attemptBudget = 1.25
)

// rounder is one round of a serve workload.
type rounder interface{ base() *phase }

func (ph *phase) base() *phase { return ph }

// runRounds runs rounds until enough(kept) holds for the rounds whose
// steal stayed within stealLimit, or until the attempts' timed phases
// exceed the budget (and enough(all) holds, so the rounds can be
// filled). round runs attempt r; in a traced run the attempts alternate
// untraced and traced, and the kept rounds must hold both. When the
// attempts run out first, the discarded rounds with the least steal fill
// the gap, and the run prints each one so kept. It returns the kept
// rounds, which the metrics use, and every attempted round, which the
// correctness gates check.
func runRounds[R rounder](e *env, enough func(rounds []R) bool, round func(r int, traced bool) (R, error)) (kept, all []R, err error) {
	done := func() bool {
		if !enough(kept) {
			return false
		}
		if !e.traced {
			return true
		}
		n := 0
		for _, rd := range kept {
			if rd.base().traced {
				n++
			}
		}
		return n > 0 && n < len(kept)
	}
	var dropped []R
	var timed time.Duration
	budget := time.Duration(attemptBudget * e.seconds * float64(time.Second))
	for r := 0; !done() && (timed < budget || !enough(all)); r++ {
		rd, err := round(r, e.traced && r%2 == 1)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", r, err)
		}
		all = append(all, rd)
		ph := rd.base()
		timed += ph.elapsed
		if ph.steal > stealLimit {
			note("round %d discarded: steal %.1f%% above the %.0f%% limit (events_per_s=%.0f)",
				r, 100*ph.steal, 100*stealLimit, float64(ph.events)/ph.elapsed.Seconds())
			dropped = append(dropped, rd)
			continue
		}
		kept = append(kept, rd)
	}
	slices.SortStableFunc(dropped, func(a, b R) int { return cmp.Compare(a.base().steal, b.base().steal) })
	for _, rd := range dropped {
		if done() {
			break
		}
		note("warning: attempts ran out; keeping round %d with steal %.1f%%", rd.base().round, 100*rd.base().steal)
		kept = append(kept, rd)
	}
	note("rounds attempted=%d kept=%d discarded=%d", len(all), len(kept), len(all)-len(kept))
	return kept, all, nil
}
