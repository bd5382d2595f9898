// Package runner implements ZebraConf's TestRunner (paper §5): given a test
// instance, it runs the heterogeneous configuration and every corresponding
// homogeneous configuration, and reports a heterogeneous-unsafe parameter
// only when the difference survives hypothesis testing at the paper's
// significance level — filtering the false positives nondeterministic unit
// tests would otherwise produce.
package runner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// Verdict classifies one instance after running.
type Verdict int

const (
	// VerdictSafe: the heterogeneous run passed on the first trial.
	VerdictSafe Verdict = iota
	// VerdictUnsafe: the heterogeneous failure was confirmed significant.
	VerdictUnsafe
	// VerdictFiltered: the first trial looked unsafe but hypothesis
	// testing could not confirm it — attributed to nondeterminism.
	VerdictFiltered
	// VerdictHomoInvalid: a homogeneous arm failed on the first trial, so
	// Definition 3.1's precondition does not hold for this instance.
	VerdictHomoInvalid
)

// String names the verdict for reports.
func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "safe"
	case VerdictUnsafe:
		return "unsafe"
	case VerdictFiltered:
		return "filtered"
	case VerdictHomoInvalid:
		return "homo-invalid"
	default:
		return "unknown"
	}
}

// Stop reasons name why an instance's confirmation trials ended. Empty
// on instances that never entered confirmation (gated out on the first
// trial).
const (
	// StopConvicted: the stopping rule reached significance.
	StopConvicted = "convicted"
	// StopFutility: the stopping rule decided no remaining trials could
	// (or plausibly would) reach significance and cut the instance off.
	StopFutility = "futility"
	// StopBudget: the round budget ran out undecided.
	StopBudget = "budget"
)

// Result is the outcome of running one instance (of a pooled run: just
// what it cost — Executions, Saved, Abandoned).
type Result struct {
	Verdict Verdict
	// FirstTrialSignal reports whether trial one showed the unsafe pattern
	// (hetero failed, all homos passed) — the §7.2 "failed in the first
	// trial" statistic.
	FirstTrialSignal bool
	// PValue is the final Fisher one-sided p-value (1 when no confirmation
	// ran).
	PValue float64
	// Executions counts unit-test runs this instance consumed.
	Executions int64
	// Saved counts runs this instance avoided through the execution
	// cache: canonically-seeded homogeneous arms another instance (or an
	// earlier round sharing the key) already executed.
	Saved int64
	// Abandoned counts those of its Executions that left a goroutine
	// running past the end of the execution (harness.Outcome.Abandoned).
	Abandoned int64
	// Rounds counts confirmation rounds run after the first trial, at
	// most Options.MaxRounds.
	Rounds int
	// Trials counts paired trials this instance consumed across all
	// rounds (heterogeneous + homogeneous arms, cached or executed):
	// the sequential-stopping cost measure, invariant under memoization.
	Trials int64
	// StopReason says why confirmation ended (StopConvicted,
	// StopFutility, StopBudget); empty when the first-trial gate decided
	// the instance without confirmation rounds.
	StopReason string
	// HeteroMsg is a failure message from a heterogeneous run, for reports.
	HeteroMsg string
	// Evidence is the instance's forensic record (nil unless
	// Options.Evidence is set): the captured heterogeneous execution —
	// preferring the first failing one — plus per-arm identity and trial
	// counts. The campaign layer fills in instance/param/repro.
	Evidence *forensics.Evidence
}

// Options configures a Runner.
type Options struct {
	// Significance is the hypothesis-testing level; zero means the paper's
	// 1e-4.
	Significance float64
	// MaxRounds caps confirmation rounds after the first trial; zero means
	// DefaultMaxRounds.
	MaxRounds int
	// DisableGate runs confirmation rounds even when the first trial shows
	// no unsafe signal (the E11 ablation: spends trials to reduce false
	// negatives).
	DisableGate bool
	// Seq selects the confirmation-trial stopping rule; the zero value
	// is stats.SeqSPRT (sequential early stopping on), stats.SeqFixed
	// restores the fixed-budget ablation.
	Seq stats.SeqMode
	// SeqMargin is ignored: an instance runs at most MaxRounds
	// confirmation rounds. It is kept only for the benchmark module,
	// which sets it, and goes with ROADMAP item 1.
	SeqMargin float64
	// BaseSeed is mixed into every per-run seed derivation, making whole
	// campaigns reproducible-by-flag; the zero value is simply the
	// default base. Heterogeneous-arm seeds depend only on (BaseSeed,
	// label, arm, round); homogeneous-arm and pooled-run seeds are
	// canonical — (BaseSeed, test, assignment digest, round), see
	// memo.SeedFor — so in-process and distributed executions of the
	// same instance run the same trials.
	BaseSeed int64
	// Strategy selects the agent's read-mapping strategy.
	Strategy agent.Strategy
	// Cache, when non-nil, memoizes canonically-seeded executions
	// (homogeneous arms and pooled heterogeneous runs): the harness is
	// seeded-deterministic, so equal cache keys mean byte-identical runs
	// and reuse changes no verdict. Nil re-runs everything.
	Cache *memo.Cache
	// CacheLabelSeeded additionally memoizes label-seeded heterogeneous
	// trials. Their keys are unique within one campaign (the label is in
	// the seed), so this buys nothing for a per-campaign in-memory cache
	// and stays off by default; set it when Cache reaches a persistent
	// tier (the disk store), where the same keys recur when an unchanged
	// campaign runs again. Forensic capture runs are
	// exempt: evidence must come from a real execution.
	CacheLabelSeeded bool
	// Obs receives execution metrics and trace spans; nil disables
	// instrumentation at no cost.
	Obs *obs.Observer
	// Evidence, when non-nil, captures a bounded forensic record per
	// instance (heterogeneous log + read trace, arm identities, trial
	// counts) and charges it against the recorder's campaign-wide
	// budget. Nil disables capture entirely.
	Evidence *forensics.Recorder
	// Coverage, when non-nil, receives every execution's deduplicated
	// read set — pre-runs with callsites, phase-2 runs params-only, and
	// cache hits replayed from the memoized Reads — building the
	// param→tests index for coverage-driven selection. Nil disables the
	// sink at no cost.
	Coverage *coverage.Collector
}

// DefaultMaxRounds is the default confirmation-round budget: enough to
// confirm a deterministic failure at 1e-4.
const DefaultMaxRounds = 8

// Runner executes instances against one application.
type Runner struct {
	app  *harness.App
	opts Options
	// executions counts every unit-test run across the runner's lifetime.
	executions atomic.Int64
}

// New returns a runner for app.
func New(app *harness.App, opts Options) *Runner {
	if opts.Significance <= 0 {
		opts.Significance = stats.DefaultSignificance
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	return &Runner{app: app, opts: opts}
}

// Executions reports the total unit-test runs performed so far.
func (r *Runner) Executions() int64 { return r.executions.Load() }

// seedFor derives a deterministic per-run seed for label-addressed runs
// (heterogeneous arms, pre-runs, dependency probes) so nondeterministic
// tests really vary across trials but campaigns stay reproducible. The
// base seed is mixed in first, so -seed reshuffles every trial at once.
// Homogeneous arms and pooled runs do NOT use this derivation: their
// seeds are canonical over the assignment content (memo.SeedFor), since
// Definition 3.1's baseline must not vary by which instance label asked
// for it.
func seedFor(base int64, label string, arm string, round int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(label))
	h.Write([]byte{0})
	h.Write([]byte(arm))
	h.Write([]byte{byte(round), byte(round >> 8)})
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// trial names one unit-test run: what to run and how to seed it. How it
// meets the execution cache follows from that, and is the whole cache
// policy (tabulated in DESIGN.md §9):
//   - full: never cached — the caller (a pre-run, a dependency probe) reads
//     the whole Outcome, which memo.Result does not carry;
//   - label-seeded (a heterogeneous arm): Cache.Do only under
//     CacheLabelSeeded, and a capture trial executes for real and is
//     Cache.Recorded under the same condition;
//   - canonically seeded (homogeneous arms, pooled runs): always Cache.Do.
type trial struct {
	test   *harness.UnitTest
	assign map[agent.Key]string
	// digest is assign's memo.HashAssignment when the caller holds it;
	// empty means runTrial digests assign itself where the key needs it.
	digest string
	// label, arm and round seed the run (seedFor). An empty label selects
	// the canonical seed over the assignment content instead (memo.SeedFor):
	// every instance needing this (test, assignment, round) baseline runs
	// the byte-identical trial, which is what makes reuse sound.
	label   string
	arm     string
	round   int
	full    bool                // and with read callsites when coverage is on
	capture harness.CaptureSpec // forensic capture bounds; zero captures nothing
}

// runTrial is the one way the runner reaches a test body, and the one
// place that says what a trial cost: an execution (perhaps an abandoned
// goroutine with it) or a saved one, tallied into cost. reused reports
// that a cached or coalesced result was returned instead of executing —
// then out carries only the verdict fields, the memoized read set is
// replayed into the coverage collector, and a cache-hit span under parent
// carries the original execution's digest. key identifies the execution
// either way; Assign is filled only when the seed or a cache consumes it,
// and digested only when the trial did not bring its digest along.
func (r *Runner) runTrial(parent obs.SpanID, cost *Result, t trial) (out harness.Outcome, reused bool, key memo.Key) {
	canonical := t.label == ""
	cached := r.opts.Cache != nil && !t.full && (canonical || r.opts.CacheLabelSeeded)
	key = memo.Key{App: r.app.Name, Test: t.test.Name}
	if canonical || cached {
		key.Assign = t.digest
		if key.Assign == "" {
			key.Assign = memo.HashAssignment(t.assign)
		}
	}
	if canonical {
		key.Seed = memo.SeedFor(r.opts.BaseSeed, t.test.Name, key.Assign, t.round)
	} else {
		key.Seed = seedFor(r.opts.BaseSeed, t.label, t.arm, t.round)
	}
	execute := func() memo.Result {
		r.executions.Add(1)
		out = harness.RunOnceCaptured(r.app, t.test, agent.Options{
			Strategy: r.opts.Strategy,
			Assign:   t.assign,
			Coverage: r.opts.Coverage != nil,
			// Only a full trial's caller reads the pre-run report.
			Trial: !t.full,
			// Pre-runs are the one stack-walk-enabled execution per test:
			// cheap (once per campaign) and the index's callsite source.
			CoverageSites: t.full && r.opts.Coverage != nil,
		}, key.Seed, r.opts.Obs, t.capture)
		r.opts.Obs.RecordExecution(r.app.Name, t.arm, out.Failed)
		r.opts.Coverage.Observe(t.test.Name, out.ReadParams)
		cost.Executions++
		if out.Abandoned {
			cost.Abandoned++
		}
		return memo.Result{Failed: out.Failed, TimedOut: out.TimedOut, Msg: out.Msg, Reads: out.ReadParams}
	}
	switch {
	case !cached:
		execute()
	case t.capture != (harness.CaptureSpec{}):
		r.opts.Cache.Record(key, execute())
	default:
		var res memo.Result
		if res, reused = r.opts.Cache.Do(key, execute); reused {
			cost.Saved++
			out = harness.Outcome{Failed: res.Failed, TimedOut: res.TimedOut, Msg: res.Msg}
			r.opts.Coverage.Observe(t.test.Name, res.Reads)
			r.opts.Obs.StartSpan("cache-hit", parent,
				obs.String("app", r.app.Name),
				obs.String("test", t.test.Name),
				obs.String("arm", t.arm),
				obs.String("digest", key.Assign),
				obs.Int("seed", key.Seed)).End()
		}
	}
	return out, reused, key
}

// PreRun executes every unit test once with no assignments, collecting the
// §4 pre-run reports (node types started, parameter usage, uncertainty).
func (r *Runner) PreRun(test *harness.UnitTest) testgen.PreRun {
	pre, _, _ := r.PreRunTimed(test)
	return pre
}

// PreRunTimed is PreRun plus the wall clock the execution consumed — the
// scheduler's cold-profile duration signal: a test's pre-run time is the
// per-execution cost its phase-2 instances will pay again and again — and
// whether the execution abandoned a goroutine.
func (r *Runner) PreRunTimed(test *harness.UnitTest) (pre testgen.PreRun, d time.Duration, abandoned bool) {
	start := time.Now()
	out, _, _ := r.runTrial(obs.NoSpan, new(Result), trial{test: test, label: test.Name, arm: "prerun", full: true})
	r.opts.Coverage.ObserveTest(test.Name)
	r.opts.Coverage.ObserveSites(test.Name, out.ReadSites)
	return testgen.PreRun{Test: test.Name, Report: out.Report}, time.Since(start), out.Abandoned
}

// RunAssignment applies Definition 3.1 to one assignment set as a trace
// root; see RunAssignmentIn.
func (r *Runner) RunAssignment(test *harness.UnitTest, asn testgen.Assignment, label string) Result {
	return r.RunAssignmentIn(obs.NoSpan, test, asn, label)
}

// RunAssignmentIn applies Definition 3.1 to one assignment set: first trial
// of the heterogeneous arm and each homogeneous arm; on an unsafe signal
// (or with gating disabled) it keeps running paired trials until Fisher's
// exact test confirms the heterogeneous failure at the significance level,
// or the round budget is exhausted. The instance span nests under parent.
func (r *Runner) RunAssignmentIn(parent obs.SpanID, test *harness.UnitTest, asn testgen.Assignment, label string) (res Result) {
	res = Result{PValue: 1}
	span := r.opts.Obs.StartSpan("instance", parent,
		obs.String("app", r.app.Name),
		obs.String("test", test.Name),
		obs.String("instance", label),
		obs.Int("seed", seedFor(r.opts.BaseSeed, label, "hetero", 0)))
	rec := r.opts.Evidence
	var ev *forensics.Evidence
	var arms []forensics.Arm
	var heteroFail, heteroPass, homoFail, homoPass int64
	// hetDigest is the heterogeneous map's digest once a trial needed it
	// (a label-seeded trial is keyed by it only under CacheLabelSeeded):
	// every later round reuses it.
	var hetDigest string
	defer func() {
		span.SetAttr(
			obs.String("verdict", res.Verdict.String()),
			obs.Bool("first_trial_signal", res.FirstTrialSignal),
			obs.Float("p_value", res.PValue),
			obs.Int("executions", res.Executions),
			obs.Int("rounds", int64(res.Rounds)))
		span.End()
		r.opts.Obs.Observe(obs.MConfirmRounds, float64(res.Rounds),
			"app", r.app.Name, "verdict", res.Verdict.String())
		if ev != nil {
			ev.Arms = arms
			ev.HeteroFail, ev.HeteroPass = heteroFail, heteroPass
			ev.HomoFail, ev.HomoPass = homoFail, homoPass
			res.Evidence = rec.Admit(ev)
		}
	}()

	// runRound runs one paired trial — the heterogeneous arm and every
	// homogeneous arm — into the cumulative counts and reports whether
	// any homogeneous arm failed in it.
	runRound := func(round int) (anyHomoFailed bool) {
		res.Trials += int64(1 + len(asn.Homo))
		rs := r.opts.Obs.StartSpan("round", span.ID(),
			obs.String("app", r.app.Name),
			obs.String("test", test.Name),
			obs.Int("round", int64(round)))
		roundHomoFailBase := homoFail
		// Capture this heterogeneous trial: round 0 always, later rounds
		// until one fails — the failing execution is the one worth
		// explaining, and once held it is never re-captured.
		hetTrial := trial{test: test, assign: asn.Hetero, digest: hetDigest, label: label, arm: "hetero", round: round}
		capturing := rec.Enabled() && (ev == nil || !ev.Failed)
		if capturing {
			hetTrial.capture = rec.Spec()
		}
		het, _, key := r.runTrial(rs.ID(), &res, hetTrial)
		hetDigest = key.Assign
		if capturing && (ev == nil || het.Failed) {
			ev = forensics.FromOutcome(r.app.Name, test.Name, key.Seed, round, het)
			ev.Assign = forensics.AssignKV(asn.Hetero)
		}
		if het.Failed {
			heteroFail++
			if res.HeteroMsg == "" {
				res.HeteroMsg = het.Msg
			}
		} else {
			heteroPass++
		}
		if rec.Enabled() && round == 0 {
			arms = append(arms, forensics.Arm{Name: "hetero", Seed: key.Seed, Failed: het.Failed})
		}
		for i, arm := range asn.Homo {
			out, reused, key := r.runTrial(rs.ID(), &res, trial{test: test, assign: arm.Assign, digest: arm.Digest, arm: homoArmName(i), round: round})
			if rec.Enabled() && round == 0 {
				arms = append(arms, forensics.Arm{
					Name:   homoArmName(i),
					Seed:   key.Seed,
					Digest: key.Assign,
					Failed: out.Failed,
					Cached: reused,
				})
			}
			if out.Failed {
				homoFail++
			} else {
				homoPass++
			}
		}
		rs.SetAttr(obs.Bool("hetero_failed", het.Failed),
			obs.Int("homo_failures", homoFail-roundHomoFailBase))
		rs.End()
		return homoFail > roundHomoFailBase
	}

	anyHomoFailedFirst := runRound(0)
	res.FirstTrialSignal = heteroFail > 0 && !anyHomoFailedFirst

	if !res.FirstTrialSignal && !r.opts.DisableGate {
		switch {
		case heteroFail == 0:
			res.Verdict = VerdictSafe
		default:
			res.Verdict = VerdictHomoInvalid
		}
		return res
	}

	// Confirmation rounds: paired trials until the stopping rule decides
	// the instance or the round budget runs out. The rule is stateless
	// over the cumulative 2×2 table, so replays and retries re-derive
	// identical decisions. campaign.Completion counts the trials an early
	// stop did not run.
	seq := stats.NewSeqTest(r.opts.Seq, r.opts.Significance, r.opts.MaxRounds, len(asn.Homo))
	for round := 1; round <= r.opts.MaxRounds; round++ {
		runRound(round)
		res.Rounds = round

		var dec stats.Decision
		dec, res.PValue = seq.Look(round, heteroFail, heteroPass, homoFail, homoPass)
		r.opts.Obs.Observe(obs.MPValue, res.PValue, "app", r.app.Name)
		switch dec {
		case stats.SeqConvict:
			res.Verdict = VerdictUnsafe
			res.StopReason = StopConvicted
			return res
		case stats.SeqFutile:
			if heteroFail == 0 {
				res.Verdict = VerdictSafe
			} else {
				res.Verdict = VerdictFiltered
			}
			res.StopReason = StopFutility
			return res
		}
	}
	res.StopReason = StopBudget
	if heteroFail == 0 {
		res.Verdict = VerdictSafe
		return res
	}
	res.Verdict = VerdictFiltered
	return res
}

// RunPooledIn executes one pooled run of assign, a pool's merged
// heterogeneous assignment (testgen.Builder.Pooled); the pool machinery
// only needs pass/fail to decide whether to split, and what the run cost
// (an execution or a saved one). The run is canonically seeded over the
// merged assignment (a pooled configuration is content, not an instance),
// so identical pools — e.g. a re-split after a retry — memoize. The
// pooled-run span nests under parent.
func (r *Runner) RunPooledIn(parent obs.SpanID, test *harness.UnitTest, assign map[agent.Key]string, label string) (failed bool, cost Result) {
	span := r.opts.Obs.StartSpan("pooled-run", parent,
		obs.String("app", r.app.Name),
		obs.String("test", test.Name),
		obs.String("pool", label))
	out, reused, _ := r.runTrial(span.ID(), &cost, trial{test: test, assign: assign, arm: "pool"})
	span.SetAttr(obs.Bool("failed", out.Failed), obs.Bool("cached", reused))
	span.End()
	result := "pass"
	if out.Failed {
		result = "fail"
	}
	r.opts.Obs.CounterAdd(obs.MPoolRuns, 1, "app", r.app.Name, "result", result)
	return out.Failed, cost
}

// homoArmName names homogeneous arm i deterministically and distinctly
// (homoA, homoB, homoC, ...), so per-arm seeds and trace attributes
// differ even beyond the usual two arms.
func homoArmName(i int) string {
	if i >= 0 && i < 26 {
		return "homo" + string(rune('A'+i))
	}
	return fmt.Sprintf("homo%d", i)
}
