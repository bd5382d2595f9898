// Package campaign orchestrates a full ZebraConf run over one application
// (paper Fig. 1): pre-run every unit test, generate instances, execute them
// through pooled testing and the TestRunner, aggregate per-parameter
// verdicts, and score them against the registries' ground-truth labels the
// way the paper's authors scored reports by manual analysis.
package campaign

import (
	"runtime"
	"time"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// Options tunes a campaign.
type Options struct {
	// Parallelism bounds concurrent unit tests (default GOMAXPROCS),
	// the analog of the paper's 20 containers per machine.
	Parallelism int
	// MaxPool bounds parameters per pooled run; 0 means unbounded (the
	// paper's setting: pool size up to the number of parameters).
	MaxPool int
	// DisablePooling runs every instance individually (ablation E10).
	DisablePooling bool
	// DisableRoundRobin drops the within-type assignment strategy
	// (ablation E12).
	DisableRoundRobin bool
	// DisableGate always runs confirmation rounds (ablation E11).
	DisableGate bool
	// Strategy selects the agent mapping strategy (ablation: attempt #3).
	Strategy agent.Strategy
	// QuarantineThreshold is the number of distinct failing unit tests
	// after which a parameter is marked unsafe and excluded from further
	// testing (§4's frequent-failer rule, see FrequentFailers); 0 means 3.
	QuarantineThreshold int
	// Params restricts the campaign to a parameter subset (empty = all).
	Params []string
	// Tests restricts the campaign to a test subset (empty = all).
	// Names that do not resolve are surfaced in Result.SkippedTests —
	// a typo must not silently shrink the campaign.
	Tests []string
	// DisableExecCache turns off execution memoization, re-running every
	// homogeneous arm and pooled run (the -exec-cache=false ablation).
	// Seeds are canonical either way, so the reported parameter set is
	// identical with the cache on or off.
	DisableExecCache bool
	// CacheBackend, when non-nil (and the cache enabled), backs this
	// campaign's in-process memo cache with a second tier — typically
	// the persistent cross-campaign disk store. A backend hit can only
	// replay a byte-identical execution, so the reported set is
	// unaffected; a warm backend just skips the work.
	CacheBackend memo.Backend
	// Seq selects the confirmation-trial stopping rule (the -seq flag):
	// the zero value is stats.SeqSPRT — sequential early stopping on by
	// default — and stats.SeqFixed restores the fixed-budget ablation.
	Seq stats.SeqMode
	// SeqMargin is ignored: an instance runs at most
	// runner.DefaultMaxRounds confirmation rounds. It is kept only for
	// the benchmark module, which sets it, and goes with ROADMAP item 1.
	SeqMargin float64
	// Seed is the campaign's base seed, mixed into every per-run seed
	// derivation so whole campaigns are reproducible-by-flag across both
	// the in-process and distributed execution paths. Zero is simply the
	// default base.
	Seed int64
	// Obs receives metrics, trace spans, and progress updates for the
	// whole campaign; nil (the default) disables observability with only
	// a nil-check of overhead on the instrumented paths.
	Obs *obs.Observer
	// SchedPolicy selects phase 2's dispatch order (sched.FIFO, the zero
	// value, keeps declaration order; sched.LPT dispatches
	// longest-predicted-first to shrink the makespan).
	SchedPolicy sched.Policy
	// Stream is ignored: a test's work item is always released the moment
	// its pre-run finishes. It is kept only for the benchmark module, which
	// sets it, and goes with ROADMAP item 1.
	Stream bool
	// Profile, when non-nil, supplies per-(app, test) duration
	// predictions from earlier campaigns and receives this campaign's
	// per-item durations. A cold (or absent) profile falls back to
	// pre-run durations measured this campaign.
	Profile *sched.Profile
	// EvidenceMax is the campaign-wide evidence byte budget: positive
	// enables per-instance forensic capture (heterogeneous log + read
	// trace, arm identities, repro command) degrading to verdict-only
	// records past the budget; negative captures without bound; zero
	// (the default) disables evidence entirely. In distributed mode the
	// budget applies per worker process.
	EvidenceMax int64
	// SelectCoverage enables coverage-driven test selection: with a warm
	// CoverageIndex, tests whose recorded read set is disjoint from the
	// campaign's parameter set are skipped entirely (pre-run included).
	// Selection is conservative — a test with no valid index entry always
	// runs, and any explicitly targeted parameter with no coverage edge
	// anywhere disables selection for the whole campaign (the
	// full-dispatch fallback must reach every test). The reported
	// parameter set is invariant under selection: a skipped test read
	// none of the campaign's parameters, so it could only have produced
	// zero instances for them.
	SelectCoverage bool
	// CoverageIndex is the previous run's param→tests index (nil = cold:
	// no selection, full fallback dispatch for explicit params).
	CoverageIndex *coverage.Index
	// CoverageKey digests the execution environment beyond schema and
	// seed (the CLI's verdict-relevant flags); index entries recorded
	// under a different key are treated as stale.
	CoverageKey string
	// Overrides replaces schema parameter defaults (param → new default)
	// before anything reads the schema — the -override flag, used by
	// -mode rerun smoke tests to simulate a changed seeded default. The
	// app itself is not mutated; its Schema constructor is wrapped.
	Overrides map[string]string
	// Stored maps a test name to a result that stands in for executing the
	// test's work item: the test still pre-runs and its item keeps its
	// suite-order ID, but the item completes with this result (see
	// pipeline.release). It is data, not policy — whoever fills it has
	// decided the results are still valid: launch does, from the item-store
	// entries PlanRerun validates (-mode rerun) and from a checkpoint
	// journal's completed items (-resume). Names of tests the campaign does
	// not select are ignored.
	Stored map[string]ItemResult
	// Distributor, when non-nil, executes phase 2's work items instead
	// of the in-process worker pool — the dist coordinator plugs in
	// here, sharding items across worker subprocesses. Begin announces
	// the phase span and total item count, Submit hands items over
	// incrementally (allowing the streaming pipeline to dispatch items
	// as their pre-runs finish; one that carries a Stored result completes
	// with it), and Drain blocks for the results, one per resolved item in
	// any order; implementations handle their own errors (an absent item
	// contributes nothing to the merged result).
	Distributor Distributor
}

// Distributor executes phase-2 work items out of process. Exactly one
// Begin, then Submit for every item counted by Begin, then one Drain.
type Distributor interface {
	Begin(parent obs.SpanID, total int)
	Submit(item WorkItem)
	Drain() []ItemResult
}

// ParamReport is the campaign's verdict for one reported parameter.
type ParamReport struct {
	Param string
	// Truth is the registry's ground-truth label; Correct is true when the
	// report matches it (reported parameters labelled unsafe).
	Truth   confkit.Safety
	Why     string
	Example string
	// Tests lists unit tests whose failure confirmed the parameter.
	Tests []string
	// MinP is the smallest confirming p-value observed.
	MinP float64
	// Rounds, Trials, and StopReason describe the first confirming
	// instance (by item order): how many confirmation rounds it ran, how
	// many unit-test trials those consumed, and why the sequential test
	// stopped (convicted / futility / budget).
	Rounds     int    `json:",omitempty"`
	Trials     int64  `json:",omitempty"`
	StopReason string `json:",omitempty"`
	// Evidence is the forensic record of the first confirming instance
	// (by item order), nil unless the campaign ran with EvidenceMax set.
	Evidence *forensics.Evidence `json:",omitempty"`
}

// Result aggregates one campaign.
type Result struct {
	App       string
	NumTests  int
	NumParams int

	PreRuns []testgen.PreRun
	Counts  testgen.ReductionCounts

	// Reported lists parameters the campaign flags as heterogeneous-unsafe,
	// sorted by name.
	Reported []ParamReport

	// Scoring against ground truth.
	TruePositives  int
	FalsePositives int
	Missed         []string // Truth==Unsafe but not reported

	// Hypothesis-testing statistics (§7.2).
	FirstTrialSignals    int
	FilteredByHypothesis int
	HomoInvalid          int

	// ConfirmationTrials counts unit-test trials spent in confirmation
	// rounds (rounds after the screening round) across every leaf
	// instance. Derived exactly from each instance's trial count — every
	// round costs Trials/(Rounds+1) trials, Rounds of which are
	// confirmation — so the figure is invariant across execution paths
	// and is the denominator the sequential-stopping ablation compares.
	ConfirmationTrials int64

	// SkippedTests lists pre-run tests that could not be resolved again
	// in phase 2 (a registration inconsistency); they produced no
	// instances and the report surfaces them instead of silently
	// dropping them.
	SkippedTests []string

	// QuarantinedItems lists unit tests whose phase-2 work item the
	// distributed coordinator abandoned after repeated worker crashes or
	// deadline kills; their instances did not run, so the report
	// surfaces them as a coverage gap. Always empty in-process.
	QuarantinedItems []string

	// WorkerStalls is always zero: nothing watches a worker's silence. It
	// is kept only for the benchmark module, which sets it, and so that
	// -json, which encodes the whole Result, keeps its bytes; it goes with
	// ROADMAP item 1.
	WorkerStalls int64

	// LeakedGoroutines counts unit-test goroutines the harness had to
	// abandon after a timeout during this campaign. The in-process path
	// cannot kill them — they keep running and mutating their (isolated,
	// but live) environment — which is exactly the hazard worker-process
	// isolation eliminates; any nonzero count is flagged in the report.
	LeakedGoroutines int64

	// Mapping statistics (§6.2).
	ConfUsingTests int
	SharingTests   int
	UncertainTests int
	TotalUncertain int
	TotalConfs     int

	// DeselectedTests lists tests coverage-driven selection skipped
	// entirely (sorted): their indexed read sets were disjoint from the
	// campaign's parameter set. The index writer carries their previous
	// entries forward so a later run can skip them again.
	DeselectedTests []string

	// Coverage is the campaign's read-coverage collector: every
	// execution's deduplicated read set (pre-runs with callsites,
	// phase-2 runs, cache hits replayed from memoized reads, worker
	// edges folded from item results). Freeze it with coverage.Build.
	Coverage *coverage.Collector `json:"-"`
	// Items holds the raw per-test item results, for the rerun replay
	// store. Not serialized with the result.
	Items []ItemResult `json:"-"`

	Elapsed time.Duration
}

// SharingRate is the §6.2 statistic: the fraction of configuration-using
// unit tests in which a unit-test-owned object was shared with a node.
func (r *Result) SharingRate() float64 {
	if r.ConfUsingTests == 0 {
		return 0
	}
	return float64(r.SharingTests) / float64(r.ConfUsingTests)
}

// paramStats accumulates evidence for one parameter during the run.
type paramStats struct {
	tests    map[string]bool
	minP     float64
	example  string
	evidence *forensics.Evidence
	rounds   int
	trials   int64
	stop     string
}

// RunnerOptions assembles what one process needs to execute a campaign's
// unit tests — the memo cache over opts.CacheBackend, the coverage
// collector and the evidence recorder — as the
// options of its TestRunner. Run builds one per campaign and a dist worker
// one per session, so each of these spans exactly that. A backend behind
// the cache is always a tier that outlives the campaign (a disk store, a
// coordinator fronting one): only then are label-seeded trials worth
// memoizing, because their keys recur only on resubmission of an unchanged
// campaign.
func RunnerOptions(app string, opts Options) runner.Options {
	ropts := runner.Options{
		DisableGate:      opts.DisableGate,
		Seq:              opts.Seq,
		Strategy:         opts.Strategy,
		BaseSeed:         opts.Seed,
		Obs:              opts.Obs,
		CacheLabelSeeded: opts.CacheBackend != nil,
		Evidence:         forensics.NewRecorder(app, opts.EvidenceMax, opts.Obs),
		Coverage:         coverage.NewCollector(),
	}
	if !opts.DisableExecCache {
		ropts.Cache = memo.NewCache(app, opts.CacheBackend, opts.Obs)
	}
	return ropts
}

// DefaultParallelism is the default concurrent unit-test budget: one per
// processor. Executions run on virtual clocks, so they are processor-bound
// and more slots than processors buy nothing. The distributed executor
// divides this same budget across its workers.
func DefaultParallelism() int {
	return runtime.GOMAXPROCS(0)
}

// Run executes a campaign over app.
func Run(app *harness.App, opts Options) *Result {
	start := time.Now()
	if opts.Parallelism <= 0 {
		opts.Parallelism = DefaultParallelism()
	}
	app = OverrideApp(app, opts.Overrides)
	schema := app.Schema()
	gen := testgen.New(schema)
	if len(opts.Params) > 0 {
		gen.SetFilter(opts.Params)
	}
	ropts := RunnerOptions(app.Name, opts)
	cov := ropts.Coverage
	run := runner.New(app, ropts)

	tests, unknown := selectTests(app, opts.Tests)
	force, deselected := coveragePlan(schema, opts, tests)
	if len(deselected) > 0 {
		tests = dropTests(tests, deselected)
	}
	res := &Result{App: app.Name, NumTests: len(tests), NumParams: schema.Len(),
		DeselectedTests: deselected, Coverage: cov}

	o := opts.Obs
	if len(unknown) > 0 {
		// Requested tests that do not exist produce no instances; surface
		// them exactly like a phase-2 lookup failure would be.
		res.SkippedTests = append(res.SkippedTests, unknown...)
		o.CounterAdd(obs.MSkippedTests, int64(len(unknown)), "app", app.Name)
	}
	o.Event(obs.EvCampaignStart,
		obs.String("app", app.Name),
		obs.Int("tests", int64(len(tests))),
		obs.Int("params", int64(schema.Len())))
	o.SetSlots(opts.Parallelism)
	campSpan := o.StartSpan("campaign", obs.NoSpan,
		obs.String("app", app.Name),
		obs.Int("tests", int64(len(tests))),
		obs.Int("params", int64(schema.Len())))
	defer campSpan.End()
	// phase opens a child span and brackets the phase with its two events
	// (the finish one carries the phase's duration); call the returned func
	// when the phase ends.
	phase := func(name string) (obs.SpanID, func()) {
		span := o.StartSpan("phase", campSpan.ID(),
			obs.String("app", app.Name), obs.String("phase", name))
		o.Event(obs.EvPhaseStart,
			obs.String("app", app.Name), obs.String("phase", name))
		phaseStart := time.Now()
		return span.ID(), func() {
			o.Event(obs.EvPhaseFinish,
				obs.String("app", app.Name), obs.String("phase", name),
				obs.Float("elapsed_s", time.Since(phaseStart).Seconds()))
			span.End()
		}
	}

	// Phases 1 and 2: pre-run every test, build and schedule work items,
	// execute their instances — one pipeline over one policy-aware queue
	// (see pipeline).
	p := &pipeline{app: app, gen: gen, run: run, opts: opts, o: o, force: force, tests: tests}
	itemResults := p.execute(phase)
	res.PreRuns = p.pres
	// Fold worker-produced coverage edges into the collector: distributed
	// phase-2 executions happen out of process, and their read sets ride
	// back on the item results. In-process items carry no Coverage (the
	// collector observed them directly), so this is a no-op locally.
	for _, it := range itemResults {
		cov.Observe(it.Test, it.Coverage)
	}
	res.Items = itemResults
	for _, pre := range res.PreRuns {
		if pre.Report.UsedConf {
			res.ConfUsingTests++
			if pre.Report.SharedConf {
				res.SharingTests++
			}
		}
		if pre.Report.UncertainConfs > 0 {
			res.UncertainTests++
		}
		res.TotalUncertain += pre.Report.UncertainConfs
		res.TotalConfs += pre.Report.TotalConfs
	}
	res.Counts.Original = gen.OriginalCount(len(tests), app.NodeTypes)
	res.Counts.AfterPreRun = gen.CountAfterPreRun(res.PreRuns)
	res.Counts.AfterUncertainty = gen.CountAfterUncertainty(res.PreRuns)

	// Phase 3: merge item results and score against ground truth.
	_, endPhase := phase("scoring")
	mergeResults(res, schema, gen, itemResults, opts)
	res.LeakedGoroutines += p.preLeaks
	endPhase()

	res.Elapsed = time.Since(start)
	campSpan.SetAttr(
		obs.Int("reported", int64(len(res.Reported))),
		obs.Int("executed", res.Counts.Executed),
		obs.Int("executions_saved", res.Counts.ExecutionsSaved),
		obs.Int("skipped_tests", int64(len(res.SkippedTests))))
	o.Event(obs.EvCampaignFinish,
		obs.String("app", app.Name),
		obs.Int("reported", int64(len(res.Reported))),
		obs.Int("executions", res.Counts.Executed),
		obs.Int("executions_saved", res.Counts.ExecutionsSaved),
		obs.Float("elapsed_s", res.Elapsed.Seconds()))
	return res
}

// selectTests resolves the test subset. The subset is a filter on the
// suite: tests come back in the suite's declaration order, each once,
// however names orders or repeats them, so an item's ID does not depend
// on how -tests was spelled. Names that do not resolve are returned in
// unknown, in the order given, rather than silently dropped: a typo in
// -tests must shrink the campaign loudly, not quietly.
func selectTests(app *harness.App, names []string) (tests []*harness.UnitTest, unknown []string) {
	if len(names) == 0 {
		tests = make([]*harness.UnitTest, len(app.Tests))
		for i := range app.Tests {
			tests[i] = &app.Tests[i]
		}
		return tests, nil
	}
	want := make(map[string]bool, len(names))
	for _, name := range names {
		want[name] = true
	}
	for i := range app.Tests {
		if want[app.Tests[i].Name] {
			tests = append(tests, &app.Tests[i])
			delete(want, app.Tests[i].Name)
		}
	}
	for _, name := range names {
		if want[name] {
			unknown = append(unknown, name)
		}
	}
	return tests, unknown
}
