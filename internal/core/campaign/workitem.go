package campaign

import (
	"slices"
	"sort"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// WorkItem is one schedulable unit of phase-2 work: a pre-run unit test
// together with its report, from which an executor derives every test
// instance. Items are serializable, so the distributed executor can ship
// them to worker subprocesses over the wire; IDs are indexes into the
// pre-run order, so the same app + test subset always yields the same item
// IDs and the merge folds items in suite order. Nothing stored on disk is
// keyed by them: a stored result is found by test name.
type WorkItem struct {
	ID     int            `json:"id"`
	Test   string         `json:"test"`
	PreRun testgen.PreRun `json:"prerun"`
	// Stored, when non-nil, is the result this item completes with instead
	// of executing (Options.Stored, renumbered to this item's ID). Whoever
	// completes items honours it — the pipeline's pool, or the Distributor,
	// which never ships such an item to a worker.
	Stored *ItemResult `json:"-"`
	// PredSeconds is the scheduler's predicted wall clock for this item
	// (profile estimate, or the cold-campaign pre-run fallback). Purely
	// advisory: it orders dispatch and never influences what the item
	// executes.
	PredSeconds float64 `json:"pred_seconds,omitempty"`
	// ForceParams lists parameters that must generate instances even when
	// this item's pre-run observed no read of them — the coverage-driven
	// full-dispatch fallback for conditionally-read parameters. Riding
	// the item keeps the distributed worker byte-identical to the
	// in-process path.
	ForceParams []string `json:"force_params,omitempty"`
}

// instancesOptions is the one set of generation options an item's
// instances derive from: ExecuteItem generates them, and the scheduler's
// cold prediction counts the same set.
func (item WorkItem) instancesOptions(opts Options) testgen.InstancesOptions {
	return testgen.InstancesOptions{DisableRoundRobin: opts.DisableRoundRobin, ForceParams: item.ForceParams}
}

// InstanceVerdict is the serializable outcome of one leaf instance run.
type InstanceVerdict struct {
	// Instance is the testgen.Instance.String() label.
	Instance         string  `json:"instance"`
	Param            string  `json:"param"`
	Verdict          string  `json:"verdict"`
	FirstTrialSignal bool    `json:"first_trial_signal,omitempty"`
	PValue           float64 `json:"p_value"`
	Rounds           int     `json:"rounds,omitempty"`
	// Trials counts unit-test trials this instance consumed across all
	// rounds (cached or executed — the statistical sample size, invariant
	// under memoization). StopReason says why confirmation stopped:
	// convicted, futility, or budget.
	Trials     int64  `json:"trials,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	HeteroMsg  string `json:"hetero_msg,omitempty"`
	// Evidence is the instance's forensic record (nil with evidence
	// off). Riding inside the verdict, it serializes over the dist
	// protocol and into checkpoint journals with no extra machinery.
	Evidence *forensics.Evidence `json:"evidence,omitempty"`
}

// ItemResult is the serializable outcome of executing one WorkItem. The
// merge step consumes these identically whether they were produced
// in-process, by a worker subprocess, or replayed from a checkpoint
// journal.
type ItemResult struct {
	ID   int    `json:"id"`
	Test string `json:"test"`
	// SkippedTest marks a pre-run test that no longer resolves (a
	// registration inconsistency, surfaced instead of silently dropped).
	SkippedTest bool `json:"skipped_test,omitempty"`
	// Quarantined marks an item the distributed coordinator gave up on
	// after repeated worker crashes or deadline kills; Error says why.
	Quarantined bool   `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
	// Instances counts leaf instances generated for this item.
	Instances int `json:"instances,omitempty"`
	// Executions counts unit-test runs this item consumed (leaf arms plus
	// pooled heterogeneous runs).
	Executions int64 `json:"executions,omitempty"`
	// ExecutionsSaved counts runs the execution cache avoided for this
	// item (memoized homogeneous arms and pooled runs).
	ExecutionsSaved int64 `json:"executions_saved,omitempty"`
	// ReachableParams lists the parameters that produced at least one
	// instance, sorted; the merge step uses them for the missed-parameter
	// accounting.
	ReachableParams []string `json:"reachable_params,omitempty"`
	// Verdicts lists every leaf instance verdict in execution order
	// (deterministic: item execution is sequential).
	Verdicts []InstanceVerdict `json:"verdicts,omitempty"`
	// LeakedGoroutines counts this item's executions that abandoned a
	// goroutine after a timeout (harness.Outcome.Abandoned, summed per
	// execution, so concurrent items never bill each other's).
	LeakedGoroutines int64 `json:"leaked_goroutines,omitempty"`
	// Coverage is the deduplicated sorted set of parameters this item's
	// executions read, filled only by worker subprocesses (the
	// in-process campaign's collector observes executions directly).
	// The coordinator folds these edges into the campaign's coverage
	// index — coverage rides the NDJSON protocol like everything else.
	Coverage []string `json:"coverage,omitempty"`
	// Replayed marks a result served from a previous run's item store by
	// -mode rerun rather than executed; its execution counters are
	// zeroed (replay costs nothing), and the item store keeps the record it
	// was decoded from.
	Replayed bool `json:"replayed,omitempty"`
}

// ExecuteItem runs every instance of one work item: generation, pooled
// testing with recursive splitting, and leaf verdicts. It is the one
// phase-2 execution path, called the same way by the in-process pipeline
// and the distributed worker: gen is the caller's generator (per campaign;
// a worker's, per session), and what the result means for cross-test
// quarantine, and for every tally the live views show, is the caller's to
// decide (Completion.Complete). Execution within an item is sequential, so
// the verdict order — and with it the serialized ItemResult — is
// deterministic for a given seed.
func ExecuteItem(app *harness.App, gen *testgen.Generator, run *runner.Runner, opts Options, parent obs.SpanID, item WorkItem) ItemResult {
	o := opts.Obs
	out := ItemResult{ID: item.ID, Test: item.Test}

	test, err := app.Test(item.Test)
	if err != nil {
		// A pre-run test that no longer resolves is a registration
		// inconsistency; surface it instead of silently dropping it.
		out.SkippedTest = true
		return out
	}
	instances := gen.Instances(item.PreRun, item.instancesOptions(opts))
	out.Instances = len(instances)
	if len(instances) == 0 {
		return out
	}
	reach := make(map[string]bool)
	for _, inst := range instances {
		reach[inst.Param] = true
	}
	for p := range reach {
		out.ReachableParams = append(out.ReachableParams, p)
	}
	sort.Strings(out.ReachableParams)

	testSpan := o.StartSpan("test", parent,
		obs.String("app", app.Name),
		obs.String("test", item.Test),
		obs.Int("item", int64(item.ID)),
		obs.Int("instances", int64(len(instances))))
	defer testSpan.End()

	asn := gen.Builder(&item.PreRun.Report)
	defer asn.Release()
	account := func(cost runner.Result) {
		out.Executions += cost.Executions
		out.ExecutionsSaved += cost.Saved
		out.LeakedGoroutines += cost.Abandoned
	}
	// Skip further instances of a parameter already confirmed unsafe
	// within this item, or quarantined by the campaign since.
	confirmedHere := make(map[string]bool)
	skip := func(param string) bool { return confirmedHere[param] || gen.Quarantined(param) }
	leaf := func(parent obs.SpanID, inst testgen.Instance) {
		if skip(inst.Param) {
			return
		}
		label := inst.String()
		r := run.RunAssignmentIn(parent, test, asn.Leaf(inst), label)
		account(r)
		if r.Evidence != nil {
			// The runner knows the execution; only this layer knows the
			// instance identity and the campaign flags a repro needs.
			r.Evidence.Instance = label
			r.Evidence.Param = inst.Param
			r.Evidence.Repro = forensics.ReproCommand(app.Name, item.Test, inst.Param, opts.Seed)
		}
		out.Verdicts = append(out.Verdicts, InstanceVerdict{
			Instance:         label,
			Param:            inst.Param,
			Verdict:          r.Verdict.String(),
			FirstTrialSignal: r.FirstTrialSignal,
			PValue:           r.PValue,
			Rounds:           r.Rounds,
			Trials:           r.Trials,
			StopReason:       r.StopReason,
			HeteroMsg:        r.HeteroMsg,
			Evidence:         r.Evidence,
		})
		if r.Verdict == runner.VerdictUnsafe {
			confirmedHere[inst.Param] = true
		}
	}

	if opts.DisablePooling {
		for _, inst := range instances {
			leaf(testSpan.ID(), inst)
		}
		return out
	}

	var runPool func(parent obs.SpanID, depth int, p testgen.Pool)
	runPool = func(parent obs.SpanID, depth int, p testgen.Pool) {
		p = shed(p, depth > 0, skip)
		switch len(p.Members) {
		case 0:
			return
		case 1:
			leaf(parent, p.Members[0])
			return
		}
		span := o.StartSpan("pool", parent,
			obs.String("app", app.Name),
			obs.String("test", p.Test),
			obs.Int("size", int64(len(p.Members))),
			obs.Int("depth", int64(depth)))
		defer span.End()
		failed, cost := run.RunPooledIn(span.ID(), test, asn.Pooled(p), p.Test+"/pool")
		account(cost)
		if !failed {
			// Pooled heterogeneous run passed: all members cleared.
			span.SetAttr(obs.Bool("cleared", true))
			return
		}
		o.CounterAdd(obs.MPoolSplits, 1, "app", app.Name)
		o.Observe(obs.MPoolDepth, float64(depth), "app", app.Name)
		a, b := p.Split()
		runPool(span.ID(), depth+1, a)
		runPool(span.ID(), depth+1, b)
	}
	for _, pool := range testgen.BuildPools(item.Test, instances, opts.MaxPool) {
		runPool(testSpan.ID(), 0, pool)
	}
	return out
}

// shed returns p without the members whose parameter skip names. Pools
// and split halves share BuildPools' one array, and the agent of a pool
// that ran reads its members through its recipe for as long as a
// goroutine of that execution runs (testgen.Builder.Pooled). So a pool
// BuildPools made sheds in place, where no recipe reads yet, and a split
// half, whose parent ran, sheds into a fresh array.
func shed(p testgen.Pool, split bool, skip func(param string) bool) testgen.Pool {
	skipped := func(in testgen.Instance) bool { return skip(in.Param) }
	if split && slices.ContainsFunc(p.Members, skipped) {
		p.Members = slices.Clone(p.Members)
	}
	p.Members = slices.DeleteFunc(p.Members, skipped)
	return p
}

// mergeResults folds item results into res — per-parameter evidence,
// verdict statistics, reachability, skipped tests, quarantined items —
// and scores the merged evidence against ground truth. It is the one
// phase-3 path, shared by the in-process and distributed campaigns:
// items are folded in ID order and every aggregate is commutative or
// resolved by that order, so the merged Result is identical no matter
// which worker ran which item, or whether some results were replayed
// from a checkpoint journal. Quarantine-skipped instances simply never
// appear in Verdicts, so they merge as skipped, not failed.
func mergeResults(res *Result, schema *confkit.Registry, gen *testgen.Generator, itemResults []ItemResult, opts Options) {
	sorted := make([]ItemResult, len(itemResults))
	copy(sorted, itemResults)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	perParam := make(map[string]*paramStats)
	// reachable tracks parameters that produced at least one instance: a
	// parameter no unit test exercises cannot be found by ZebraConf by
	// definition, so it does not count as missed (e.g. the HDFS
	// corner-case parameters an HBase suite never reaches).
	reachable := make(map[string]bool)

	for _, it := range sorted {
		if it.SkippedTest {
			res.SkippedTests = append(res.SkippedTests, it.Test)
			continue
		}
		if it.Quarantined {
			res.QuarantinedItems = append(res.QuarantinedItems, it.Test)
			continue
		}
		res.Counts.Executed += it.Executions
		res.Counts.ExecutionsSaved += it.ExecutionsSaved
		res.LeakedGoroutines += it.LeakedGoroutines
		for _, p := range it.ReachableParams {
			reachable[p] = true
		}
		for _, v := range it.Verdicts {
			if v.FirstTrialSignal {
				res.FirstTrialSignals++
			}
			if v.Rounds > 0 && v.Trials > 0 {
				// Trials = (Rounds+1) × per-round cost exactly, so the
				// confirmation share (everything after the screening
				// round) is Trials·Rounds/(Rounds+1).
				res.ConfirmationTrials += v.Trials * int64(v.Rounds) / int64(v.Rounds+1)
			}
			switch v.Verdict {
			case runner.VerdictFiltered.String():
				res.FilteredByHypothesis++
			case runner.VerdictHomoInvalid.String():
				res.HomoInvalid++
			case runner.VerdictUnsafe.String():
				ps := perParam[v.Param]
				if ps == nil {
					ps = &paramStats{tests: make(map[string]bool), minP: 1}
					perParam[v.Param] = ps
				}
				ps.tests[it.Test] = true
				if v.PValue < ps.minP {
					ps.minP = v.PValue
				}
				if ps.example == "" {
					ps.example = v.HeteroMsg
				}
				if ps.stop == "" {
					// First confirming instance in item-ID order, same
					// tie-break as the evidence record below.
					ps.rounds = v.Rounds
					ps.trials = v.Trials
					ps.stop = v.StopReason
				}
				if ps.evidence == nil && v.Evidence != nil {
					// First confirming instance in item-ID order: items
					// fold deterministically, so the chosen record is
					// identical across execution paths and resumes.
					ps.evidence = v.Evidence
				}
			}
		}
	}
	sort.Strings(res.SkippedTests)
	sort.Strings(res.QuarantinedItems)

	for param, ps := range perParam {
		p := schema.Lookup(param)
		report := ParamReport{Param: param, MinP: ps.minP, Example: ps.example, Evidence: ps.evidence,
			Rounds: ps.rounds, Trials: ps.trials, StopReason: ps.stop}
		if p != nil {
			report.Truth = p.Truth
			report.Why = p.Why
		}
		for t := range ps.tests {
			report.Tests = append(report.Tests, t)
		}
		sort.Strings(report.Tests)
		res.Reported = append(res.Reported, report)
		if report.Truth == confkit.SafetyUnsafe {
			res.TruePositives++
		} else {
			res.FalsePositives++
		}
	}
	sort.Slice(res.Reported, func(i, j int) bool { return res.Reported[i].Param < res.Reported[j].Param })

	for _, p := range schema.Params() {
		if p.Truth == confkit.SafetyUnsafe && perParam[p.Name] == nil && gen.InFilter(p.Name) && reachable[p.Name] {
			res.Missed = append(res.Missed, p.Name)
		}
	}
	sort.Strings(res.Missed)
}
