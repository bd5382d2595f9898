// Package sched is ZebraConf's adaptive campaign scheduler. Phase-2 work
// items are independent and wildly skewed in duration (a test with two
// reachable parameters finishes in milliseconds while a sleep-heavy one
// holds a worker for minutes), so the makespan of a campaign is set
// almost entirely by dispatch order: declaration order can park the
// longest item last and idle every other worker while it runs alone.
//
// The package provides three pieces, each usable on its own:
//
//   - Policy: longest-predicted-processing-time-first (LPT) dispatch,
//     the classic greedy whose makespan is within 4/3 of optimal on
//     identical machines, with FIFO kept as the ablation baseline.
//   - Profile: a persistent per-(app, test) wall-clock store (EWMA over
//     campaigns, JSON on disk) supplying the duration predictions; cold
//     campaigns fall back to pre-run durations measured the same run.
//   - Queue: the one policy-aware queue phase 2 dispatches from, in
//     process and through the distributed coordinator alike, handing out
//     the highest-priority ready task and recording queue-wait and
//     reorder statistics.
//
// The scheduler never changes what runs — per-item seeds depend only on
// the campaign seed and the item's content, and the phase-3 merge folds
// results in item-ID order — so any dispatch order yields the same
// merged report; sched only chooses when each item runs.
package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Policy selects the dispatch order for phase-2 work items.
type Policy int

const (
	// FIFO dispatches items in declaration order — the pre-scheduler
	// behaviour, kept as the ablation baseline (-sched=fifo).
	FIFO Policy = iota
	// LPT dispatches longest-predicted-processing-time-first, so the
	// items that dominate the makespan start while every worker is busy
	// and the schedule's tail is made of short items.
	LPT
)

// ParsePolicy parses the -sched flag value.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "fifo":
		return FIFO, nil
	case "lpt":
		return LPT, nil
	}
	return FIFO, fmt.Errorf("sched: unknown policy %q (want lpt or fifo)", s)
}

func (p Policy) String() string {
	if p == LPT {
		return "lpt"
	}
	return "fifo"
}

// Rank returns the dispatch order for a batch of items with the given
// predicted durations, as a permutation of indices, plus the number of
// items whose position changed (the reordered-items statistic). FIFO is
// the identity. LPT sorts descending by prediction with ties broken by
// index, so the order is deterministic for a given prediction set.
//
// Queue is the only scheduler a campaign runs; Rank's one remaining caller
// is the sched.rank_us rung of bench/ladder.go, which a change to the
// program may not edit. Deleting Rank belongs to a benchmark PR.
func Rank(policy Policy, pred []float64) (order []int, moved int) {
	order = make([]int, len(pred))
	for i := range order {
		order[i] = i
	}
	if policy != LPT {
		return order, 0
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pred[order[a]] > pred[order[b]]
	})
	for pos, idx := range order {
		if pos != idx {
			moved++
		}
	}
	return order, moved
}
