package campaign

import (
	"strings"
	"sync"

	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
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

// Completion is the campaign's one completion step: what a resolved work
// item means for the live views, read once from its ItemResult for both
// executors (pipeline.doItem, and dist.Run after its journal append), so
// no number depends on which one ran the item. It
// carries §4's rule; safe for concurrent use.
type Completion struct {
	*FrequentFailers
	profile *sched.Profile
}

// NewCompletion builds the step for one campaign over app: §4's rule at
// threshold and the profile executed items train. profile and o may be
// nil.
func NewCompletion(app string, threshold int, profile *sched.Profile, o *obs.Observer) *Completion {
	return &Completion{NewFrequentFailers(app, threshold, o), profile}
}

// Complete accounts one resolved item and returns what §4's rule
// quarantines on it, for the caller to apply. An executed result (elapsed
// and pred in seconds, pred 0 for none) trains the profile and emits a
// verdict event per unsafe verdict, then item_complete with how (the
// executor's attributes) and the result's nonzero tallies. A stored one gets
// item_complete with stored=true alone: its own run counted it.
func (c *Completion) Complete(res ItemResult, elapsed, pred float64, stored bool, how ...obs.Attr) (quarantined []string) {
	attrs := append([]obs.Attr{obs.String("app", c.app), obs.Int("item", int64(res.ID)), obs.String("test", res.Test)}, how...)
	if stored {
		attrs = append(attrs, obs.Bool("stored", true))
	} else {
		c.profile.RecordTrials(c.app, res.Test, elapsed, res.Executions)
		attrs = append(attrs, obs.Float("elapsed_s", elapsed), obs.Float("pred_s", pred))
		for k, v := range c.tally(res) {
			if v != 0 {
				attrs = append(attrs, obs.Int(k, v))
			}
		}
	}
	c.o.Event(obs.EvItemComplete, attrs...)
	return c.Note(res, stored)
}

// tally reads res's tallies, keyed by item_complete attribute, and emits its
// unsafe verdicts. Trial savings are measured against the runner's round
// budget R (every campaign runs runner.DefaultMaxRounds) at
// Trials/(Rounds+1) trials a round: an early stop (convicted or
// futility) within R saved R−Rounds rounds. A result an older build
// journaled may carry rounds past R, drawn from a since-deleted budget
// pool; those saved nothing.
func (c *Completion) tally(res ItemResult) map[string]int64 {
	n := map[string]int64{"instances": int64(res.Instances), "executions": res.Executions,
		"executions_saved": res.ExecutionsSaved, "leaked": res.LeakedGoroutines}
	if res.SkippedTest {
		n["skipped"] = 1
	}
	for _, v := range res.Verdicts {
		n[strings.ReplaceAll(v.Verdict, "-", "_")]++
		if v.Verdict == runner.VerdictUnsafe.String() {
			c.o.Event(obs.EvVerdict, obs.String("app", c.app), obs.String("param", v.Param),
				obs.String("test", res.Test), obs.String("instance", v.Instance), obs.Float("p", v.PValue))
		}
		if v.FirstTrialSignal {
			n["first_trial"]++
		}
		if v.Rounds < runner.DefaultMaxRounds && (v.StopReason == runner.StopConvicted || v.StopReason == runner.StopFutility) {
			n["trials_saved_early"] += int64(runner.DefaultMaxRounds-v.Rounds) * (v.Trials / int64(v.Rounds+1))
		}
		if v.Evidence != nil {
			n["evidence"]++
			if v.Evidence.VerdictOnly {
				n["evidence_budget"]++
			}
		}
	}
	return n
}
