package campaign

import (
	"encoding/json"
	"reflect"
	"testing"

	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/harness"
)

// buildIndexAndStore freezes one campaign result into the persisted
// coverage artifacts, mirroring the CLI's -ledger save path.
func buildIndexAndStore(t *testing.T, app *harness.App, opts Options, res *Result) (*coverage.Index, *coverage.ItemStore) {
	t.Helper()
	schema := OverrideApp(app, opts.Overrides).Schema()
	ix := coverage.Build(app.Name, opts.Seed, opts.CoverageKey, res.Coverage, schema)
	st := &coverage.ItemStore{App: app.Name, Items: make(map[string]json.RawMessage)}
	for _, it := range res.Items {
		b, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		st.Items[it.Test] = b
	}
	return ix, st
}

// rerun runs app under opts with the plan's replayed results standing in
// for their tests — the input launch builds for -mode rerun.
func rerun(app *harness.App, opts Options, plan RerunPlan) *Result {
	opts.Stored = plan.Stored
	return Run(app, opts)
}

// TestCampaignCollectsCoverage: a plain run populates the collector with
// every suite test and the parameters it read.
func TestCampaignCollectsCoverage(t *testing.T) {
	t.Parallel()
	app := syntheticApp(3)
	res := Run(app, Options{})
	if res.Coverage == nil {
		t.Fatal("campaign did not attach a collector")
	}
	params, ok := res.Coverage.Params("TestExchange0")
	if !ok {
		t.Fatal("no coverage entry for TestExchange0")
	}
	want := map[string]bool{"buffer": true, "dir": true, "codec": true, "trap": true}
	got := map[string]bool{}
	for _, p := range params {
		got[p] = true
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("TestExchange0 coverage missing %q: %v", p, params)
		}
	}
	// The node-less test must have an (empty) entry, not be absent —
	// selection needs to distinguish "reads nothing" from "never seen".
	if pure, ok := res.Coverage.Params("TestPureFunction"); !ok || len(pure) != 0 {
		t.Fatalf("TestPureFunction entry = %v, %v; want empty, true", pure, ok)
	}
	if len(res.Items) == 0 {
		t.Fatal("campaign did not retain item results")
	}
}

// TestCoveragePlanForcingAndSelection exercises the three coveragePlan
// regimes directly: cold index (global force), warm index with edges
// (per-test force + deselection), and warm index while a param still
// needs the global fallback (no deselection).
func TestCoveragePlanForcingAndSelection(t *testing.T) {
	t.Parallel()
	app := syntheticApp(2)
	schema := app.Schema()
	tests, _ := selectTests(app, nil)

	// Cold: every explicit param forces on every test; nothing deselects.
	force, desel := coveragePlan(schema, Options{
		Params: []string{"codec"}, SelectCoverage: true,
	}, tests)
	if len(desel) != 0 {
		t.Fatalf("cold index deselected %v", desel)
	}
	for _, tt := range tests {
		if !reflect.DeepEqual(force[tt.Name], []string{"codec"}) {
			t.Fatalf("cold force for %s = %v", tt.Name, force[tt.Name])
		}
	}

	// Warm: an index where only TestExchange0 reads codec, and
	// TestPureFunction reads nothing.
	col := coverage.NewCollector()
	col.Observe("TestExchange0", []string{"codec", "buffer"})
	col.Observe("TestExchange1", []string{"buffer"})
	col.ObserveTest("TestPureFunction")
	ix := coverage.Build(app.Name, 0, "", col, schema)

	force, desel = coveragePlan(schema, Options{
		Params: []string{"codec"}, SelectCoverage: true, CoverageIndex: ix,
	}, tests)
	if !reflect.DeepEqual(force["TestExchange0"], []string{"codec"}) {
		t.Fatalf("edge test not forced: %v", force)
	}
	if len(force["TestExchange1"]) != 0 {
		t.Fatalf("edge-less test forced: %v", force["TestExchange1"])
	}
	if !reflect.DeepEqual(desel, []string{"TestExchange1", "TestPureFunction"}) {
		t.Fatalf("deselected = %v, want the tests not reading codec", desel)
	}

	// Warm but the campaign targets a param no index entry reads: full
	// dispatch must reach every test, so nothing may deselect.
	force, desel = coveragePlan(schema, Options{
		Params: []string{"dir"}, SelectCoverage: true, CoverageIndex: ix,
	}, tests)
	if len(desel) != 0 {
		t.Fatalf("global-fallback run still deselected %v", desel)
	}
	for _, tt := range tests {
		if !reflect.DeepEqual(force[tt.Name], []string{"dir"}) {
			t.Fatalf("fallback force for %s = %v", tt.Name, force[tt.Name])
		}
	}

	// Selection off: never deselect, forcing unchanged.
	_, desel = coveragePlan(schema, Options{
		Params: []string{"codec"}, CoverageIndex: ix,
	}, tests)
	if len(desel) != 0 {
		t.Fatalf("-select=all deselected %v", desel)
	}

	// Flat campaign (no explicit params): no forcing at all — the
	// paper's pre-run-filtered semantics stay untouched.
	force, _ = coveragePlan(schema, Options{CoverageIndex: ix, SelectCoverage: true}, tests)
	if len(force) != 0 {
		t.Fatalf("flat campaign forced %v", force)
	}
}

// TestSelectionPinsReportedSet is the equivalence invariant at campaign
// level: warm-index coverage selection must report the identical
// parameter set as full dispatch, while skipping at least one test.
func TestSelectionPinsReportedSet(t *testing.T) {
	t.Parallel()
	app := syntheticApp(3)
	base := Options{Params: []string{"codec", "trap", "buffer"}, Seed: 11}

	cold := Run(app, base)
	ix, _ := buildIndexAndStore(t, app, base, cold)

	warmOn := base
	warmOn.SelectCoverage = true
	warmOn.CoverageIndex = ix
	on := Run(app, warmOn)

	warmOff := base
	warmOff.CoverageIndex = ix
	off := Run(app, warmOff)

	names := func(res *Result) []string {
		var out []string
		for _, r := range res.Reported {
			out = append(out, r.Param)
		}
		return out
	}
	if !reflect.DeepEqual(names(on), names(cold)) || !reflect.DeepEqual(names(off), names(cold)) {
		t.Fatalf("selection changed the reported set:\n cold %v\n on   %v\n off  %v",
			names(cold), names(on), names(off))
	}
	// TestPureFunction reads nothing the campaign targets — selection
	// must actually skip it (otherwise this test is vacuous).
	if !reflect.DeepEqual(on.DeselectedTests, []string{"TestPureFunction"}) {
		t.Fatalf("DeselectedTests = %v, want [TestPureFunction]", on.DeselectedTests)
	}
	if len(off.DeselectedTests) != 0 {
		t.Fatalf("-select=all deselected %v", off.DeselectedTests)
	}
	if on.NumTests >= off.NumTests {
		t.Fatalf("selection did not shrink the suite: on %d, off %d", on.NumTests, off.NumTests)
	}
}

// TestCacheHitCoverageComplete is the memo bugfix: an all-cache-hit
// resubmission executes nothing, so reads must replay from the memoized
// results — the rebuilt index still carries every edge.
func TestCacheHitCoverageComplete(t *testing.T) {
	t.Parallel()
	app := syntheticApp(2)
	store, err := diskcache.Open(t.TempDir(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: []string{"codec", "buffer"}, Seed: 3, CacheBackend: store}

	first := Run(app, opts)
	second := Run(app, opts)
	if second.Counts.Executed != 0 {
		t.Fatalf("resubmission executed %d instances; want a fully warm cache", second.Counts.Executed)
	}
	if second.Counts.ExecutionsSaved == 0 {
		t.Fatal("resubmission saved nothing")
	}

	schema := app.Schema()
	ix1 := coverage.Build(app.Name, opts.Seed, "", first.Coverage, schema)
	ix2 := coverage.Build(app.Name, opts.Seed, "", second.Coverage, schema)
	b1, _ := ix1.Bytes()
	b2, _ := ix2.Bytes()
	if string(b1) != string(b2) {
		t.Fatalf("cache hits lost coverage edges:\nfresh:\n%s\nwarm:\n%s", b1, b2)
	}
	if got := ix2.TestsReading("codec"); len(got) == 0 {
		t.Fatal("warm index has no codec readers at all — replayed reads missing")
	}
}

// TestRerunReplaysUnchangedAndNamesDrift drives the full incremental
// cycle: an unchanged rerun replays everything and reports identically;
// an overridden default re-executes exactly the tests that read the
// parameter, naming it as the reason.
func TestRerunReplaysUnchangedAndNamesDrift(t *testing.T) {
	t.Parallel()
	app := syntheticApp(2)
	opts := Options{Params: []string{"codec", "buffer"}, Seed: 5, CoverageKey: "env"}

	full := Run(app, opts)
	ix, st := buildIndexAndStore(t, app, opts, full)

	// Unchanged inputs: everything replays, nothing runs.
	plan := PlanRerun(app, opts, ix, st)
	if len(plan.Changed) != 0 {
		t.Fatalf("unchanged rerun wants to execute %v (reasons %v)", plan.Changed, plan.Reasons)
	}
	if len(plan.Replayed) != full.NumTests {
		t.Fatalf("replayed %d of %d tests", len(plan.Replayed), full.NumTests)
	}
	rres := rerun(app, opts, plan)
	if rres.Counts.Executed != 0 {
		t.Fatalf("replay executed %d instances", rres.Counts.Executed)
	}
	if !reflect.DeepEqual(rres.Reported, full.Reported) {
		t.Fatalf("replayed reported set diverges:\n full  %+v\n rerun %+v", full.Reported, rres.Reported)
	}
	if rres.TruePositives != full.TruePositives || rres.FalsePositives != full.FalsePositives {
		t.Fatalf("replay changed scoring: TP %d/%d FP %d/%d",
			rres.TruePositives, full.TruePositives, rres.FalsePositives, full.FalsePositives)
	}

	// A changed environment key invalidates every stored entry.
	envOpts := opts
	envOpts.CoverageKey = "env2"
	if p := PlanRerun(app, envOpts, ix, st); len(p.Replayed) != 0 {
		t.Fatalf("stale env key still replayed %v", p.Replayed)
	}

	// Overriding a read parameter's default re-executes its readers —
	// and only them — with the parameter named as the reason.
	ovOpts := opts
	ovOpts.Overrides = map[string]string{"buffer": "128"}
	p := PlanRerun(app, ovOpts, ix, st)
	for _, name := range []string{"TestExchange0", "TestExchange1"} {
		if !containsStr(p.Changed, name) {
			t.Fatalf("buffer reader %s not re-executed: %+v", name, p)
		}
		if !reflect.DeepEqual(p.Reasons[name], []string{"buffer"}) {
			t.Fatalf("reason for %s = %v, want [buffer]", name, p.Reasons[name])
		}
	}
	if !containsStr(p.Replayed, "TestPureFunction") {
		t.Fatalf("non-reader TestPureFunction not replayed: %+v", p)
	}
	rres = rerun(app, ovOpts, p)
	if rres.Counts.Executed == 0 {
		t.Fatal("changed tests did not execute")
	}
	if !reflect.DeepEqual(rres.Reported, full.Reported) {
		t.Fatalf("override of a safe default changed the reported set:\n full  %+v\n rerun %+v",
			full.Reported, rres.Reported)
	}
}
