package campaign

import (
	"sync"

	"zebraconf/internal/core/runner"
	"zebraconf/internal/obs"
)

// FrequentFailers is §4's frequent-failer rule: a parameter confirmed
// unsafe by threshold distinct unit tests is quarantined, so the rest of
// the campaign skips its instances. It decides when, from each completed
// item's result (Note); the caller acts — the in-process pipeline
// quarantines the parameter in its generator, the distributed coordinator
// broadcasts it to its workers, which do the same in theirs. Safe for
// concurrent use.
type FrequentFailers struct {
	app       string
	threshold int
	o         *obs.Observer

	mu          sync.Mutex
	confirmedBy map[string]map[string]bool
	quarantined []string
}

// NewFrequentFailers builds the rule for one campaign over app; a
// threshold of 0 (or less) means 3. o may be nil.
func NewFrequentFailers(app string, threshold int, o *obs.Observer) *FrequentFailers {
	if threshold <= 0 {
		threshold = 3
	}
	return &FrequentFailers{app: app, threshold: threshold, o: o,
		confirmedBy: make(map[string]map[string]bool)}
}

// Note feeds one item result's unsafe verdicts to the rule and returns the
// parameters they quarantine, for the caller to act on. A result replayed
// from a checkpoint journal counts silently (Fold): the interrupted run
// already announced what it quarantined.
func (f *FrequentFailers) Note(res ItemResult, replayed bool) (quarantined []string) {
	confirm := f.Confirm
	if replayed {
		confirm = f.Fold
	}
	for _, v := range res.Verdicts {
		if v.Verdict == runner.VerdictUnsafe.String() && confirm(v.Param, res.Test) {
			quarantined = append(quarantined, v.Param)
		}
	}
	return quarantined
}

// Confirm records that test confirmed param unsafe and reports whether
// that quarantines param: true exactly once per parameter, on the
// confirmation by its threshold-th distinct test. A true answer is emitted
// here as the param_quarantined event.
func (f *FrequentFailers) Confirm(param, test string) bool {
	if !f.Fold(param, test) {
		return false
	}
	f.o.Event(obs.EvParamQuarantined,
		obs.String("app", f.app), obs.String("param", param))
	return true
}

// Fold is Confirm without the telemetry, for confirmations replayed from a
// checkpoint journal: the interrupted run already reported them.
func (f *FrequentFailers) Fold(param, test string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	set := f.confirmedBy[param]
	if set == nil {
		set = make(map[string]bool)
		f.confirmedBy[param] = set
	}
	// Only a new test grows the set, so it passes threshold once.
	if set[test] {
		return false
	}
	set[test] = true
	if len(set) != f.threshold {
		return false
	}
	f.quarantined = append(f.quarantined, param)
	return true
}

// Quarantined lists every parameter quarantined so far, oldest first.
func (f *FrequentFailers) Quarantined() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.quarantined...)
}
