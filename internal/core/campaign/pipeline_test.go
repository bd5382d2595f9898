package campaign

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/apps/miniyarn"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// fakeDistributor stands in for the dist coordinator: it logs a dispatch
// event the moment an item is submitted (an idle worker would take it at
// once) and resolves every item with an empty result.
type fakeDistributor struct {
	o     *obs.Observer
	mu    sync.Mutex
	items []WorkItem
}

func (d *fakeDistributor) Begin(obs.SpanID, int) {}

func (d *fakeDistributor) Submit(item WorkItem) {
	d.o.Event(obs.EvItemDispatch, obs.String("app", "synthetic"), obs.Int("item", int64(item.ID)))
	d.mu.Lock()
	d.items = append(d.items, item)
	d.mu.Unlock()
}

func (d *fakeDistributor) Drain() []ItemResult {
	out := make([]ItemResult, len(d.items))
	for i, it := range d.items {
		out[i] = ItemResult{ID: it.ID, Test: it.Test}
	}
	return out
}

// dispatchesBeforePreRunEnd runs one synthetic campaign under LPT with a
// warm profile — the order in which a streamed pipeline overtakes pending
// pre-runs deterministically, whatever the parallelism — and counts the
// item_dispatch events logged before phase_finish{phase="prerun"}.
func dispatchesBeforePreRunEnd(t *testing.T, dist *fakeDistributor) (before int) {
	t.Helper()
	const n = 4
	var buf bytes.Buffer
	o := obs.New()
	o.Events = obs.NewEventLog(&buf)
	opts := schedOptions(sched.LPT, warmProfile(n), o)
	if dist != nil {
		dist.o = o
		opts.Distributor = dist
	}
	Run(syntheticApp(n), opts)
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	preDone, total := false, 0
	for _, e := range events {
		switch {
		case e.Event == obs.EvPhaseFinish && e.Attrs["phase"] == "prerun":
			preDone = true
		case e.Event == obs.EvItemDispatch:
			total++
			if !preDone {
				before++
			}
		}
	}
	if !preDone || total != n+1 {
		t.Fatalf("log holds %d dispatches (want %d), prerun finished=%v", total, n+1, preDone)
	}
	return before
}

// TestStreamDispatchesDuringPreRuns pins the one release policy: the first
// built item overtakes the pre-runs still queued, in process and through a
// Distributor.
func TestStreamDispatchesDuringPreRuns(t *testing.T) {
	t.Parallel()
	if before := dispatchesBeforePreRunEnd(t, nil); before == 0 {
		t.Fatal("in-process: no item dispatched before the pre-run phase finished")
	}
	if before := dispatchesBeforePreRunEnd(t, &fakeDistributor{}); before == 0 {
		t.Fatal("distributor: no item submitted before the pre-run phase finished")
	}
}

// TestFrequentFailersFiresOncePerParam hammers §4's rule from 16
// goroutines: each parameter is quarantined exactly once, by its
// threshold-th distinct test, however the confirmations interleave and
// however often one test repeats.
func TestFrequentFailersFiresOncePerParam(t *testing.T) {
	t.Parallel()
	const confirmers, threshold = 16, 3
	o := obs.New()
	f := NewFrequentFailers("app", threshold, o)
	params := []string{"p0", "p1", "p2", "p3"}
	fired := make([]atomic.Int64, len(params))
	var wg sync.WaitGroup
	for g := 0; g < confirmers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			test := string(rune('A' + g))
			for rep := 0; rep < 3; rep++ {
				for i, p := range params {
					if f.Confirm(p, test) {
						fired[i].Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i, p := range params {
		if n := fired[i].Load(); n != 1 {
			t.Errorf("%s quarantined %d times, want 1", p, n)
		}
	}
	if n := o.Metrics.CounterValue(obs.MQuarantine, "app", "app"); n != int64(len(params)) {
		t.Errorf("%s = %d, want %d", obs.MQuarantine, n, len(params))
	}
	got := f.Quarantined()
	sort.Strings(got)
	if len(got) != len(params) || got[0] != "p0" || got[3] != "p3" {
		t.Errorf("Quarantined() = %v, want %v", got, params)
	}
}

// TestFrequentFailersThresholdAndRepeats walks the boundary one
// confirmation at a time.
func TestFrequentFailersThresholdAndRepeats(t *testing.T) {
	t.Parallel()
	o := obs.New()
	f := NewFrequentFailers("app", 0, o) // 0 means 3
	for i := 0; i < 10; i++ {
		if f.Confirm("p", "TestA") {
			t.Fatal("repeats of one test quarantined the parameter")
		}
	}
	if f.Confirm("p", "TestB") {
		t.Fatal("quarantined at 2 distinct tests, threshold is 3")
	}
	// Fold answers like Confirm but stays silent.
	if !f.Fold("p", "TestC") {
		t.Fatal("third distinct test did not quarantine")
	}
	if n := o.Metrics.CounterValue(obs.MQuarantine, "app", "app"); n != 0 {
		t.Fatalf("Fold emitted telemetry: %s = %d", obs.MQuarantine, n)
	}
	if f.Confirm("p", "TestD") || f.Fold("p", "TestE") {
		t.Fatal("parameter quarantined a second time")
	}
	if got := f.Quarantined(); len(got) != 1 || got[0] != "p" {
		t.Fatalf("Quarantined() = %v, want [p]", got)
	}
}

// TestFrequentFailersNoteFromItemResults scripts §4's rule over whole item
// results, the way both callers feed it: the threshold-th distinct test
// returns the parameter, once; a resumed run's replayed results count
// toward the threshold but are never announced.
func TestFrequentFailersNoteFromItemResults(t *testing.T) {
	t.Parallel()
	unsafe, safe := runner.VerdictUnsafe.String(), runner.VerdictSafe.String()
	item := func(test string, verdicts ...InstanceVerdict) ItemResult {
		return ItemResult{Test: test, Verdicts: verdicts}
	}
	o := obs.New()
	f := NewFrequentFailers("app", 3, o)
	steps := []struct {
		res      ItemResult
		replayed bool
		want     []string
	}{
		{res: item("TestA", InstanceVerdict{Param: "p", Verdict: unsafe}, InstanceVerdict{Param: "q", Verdict: safe})},
		{res: item("TestA", InstanceVerdict{Param: "p", Verdict: unsafe})}, // a retry of the same test
		{res: item("TestB", InstanceVerdict{Param: "p", Verdict: unsafe}, InstanceVerdict{Param: "r", Verdict: unsafe}), replayed: true},
		{res: item("TestC", InstanceVerdict{Param: "q", Verdict: "filtered"}, InstanceVerdict{Param: "r", Verdict: unsafe}), replayed: true},
		{res: item("TestD", InstanceVerdict{Param: "r", Verdict: unsafe}), replayed: true, want: []string{"r"}},
		{res: item("TestE", InstanceVerdict{Param: "p", Verdict: unsafe}, InstanceVerdict{Param: "r", Verdict: unsafe}), want: []string{"p"}},
		{res: item("TestF", InstanceVerdict{Param: "p", Verdict: unsafe}, InstanceVerdict{Param: "r", Verdict: unsafe})},
	}
	for i, s := range steps {
		if got := f.Note(s.res, s.replayed); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("step %d (%s): Note = %v, want %v", i, s.res.Test, got, s.want)
		}
	}
	// r crossed the threshold inside the replayed journal: registered for
	// the catch-up broadcast, announced by nobody.
	if got := f.Quarantined(); !reflect.DeepEqual(got, []string{"r", "p"}) {
		t.Fatalf("Quarantined() = %v, want [r p]", got)
	}
	if n := o.Metrics.CounterValue(obs.MQuarantine, "app", "app"); n != 1 {
		t.Fatalf("%s = %d, want 1 (p only)", obs.MQuarantine, n)
	}
}

// TestCompletionTalliesOneItem scripts the completion step over one
// executed and one stored result: the executed one emits its unsafe
// verdicts, then one item_complete whose tallies the fold counts — trial
// savings derived from each verdict against the runner's round budget R,
// including a marginal instance that drew two extension rounds (R budgeted
// + 2, the runner's reallocation case) — and the stored one counts as
// resumed only. Every verdict runs 3 trials a round.
func TestCompletionTalliesOneItem(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	o := obs.New()
	o.Events = obs.NewEventLog(&buf)
	c := NewCompletion("app", 0, nil, o)
	const R = runner.DefaultMaxRounds
	ev := func(verdictOnly bool) *forensics.Evidence { return &forensics.Evidence{VerdictOnly: verdictOnly} }
	res := ItemResult{ID: 4, Test: "TestA", Instances: 7, Executions: 60, ExecutionsSaved: 5, LeakedGoroutines: 1,
		Verdicts: []InstanceVerdict{
			{Param: "p", Verdict: "unsafe", FirstTrialSignal: true, Rounds: R - 1, Trials: 3 * R, StopReason: runner.StopConvicted, Evidence: ev(false)},
			{Param: "q", Verdict: "unsafe", FirstTrialSignal: true, Rounds: R + 2, Trials: 3 * (R + 3), StopReason: runner.StopConvicted, Evidence: ev(true)},
			{Param: "r", Verdict: "filtered", FirstTrialSignal: true, Rounds: R - 2, Trials: 3 * (R - 1), StopReason: runner.StopFutility},
			{Param: "s", Verdict: "filtered", FirstTrialSignal: true, Rounds: R + 1, Trials: 3 * (R + 2), StopReason: runner.StopBudget},
			{Param: "t", Verdict: "safe", Trials: 3},
			{Param: "u", Verdict: "homo-invalid", Trials: 3},
		}}
	if q := c.Complete(res, 0.5, 0.25, false); q != nil {
		t.Fatalf("quarantined %v below the threshold", q)
	}
	c.Complete(ItemResult{ID: 5, Test: "TestB", Instances: 9, Executions: 9}, 0, 0, true)

	m := o.Metrics
	for _, tc := range []struct {
		name string
		got  int64
		want int64
	}{
		{"instances total", m.GaugeValue(obs.MInstancesTotal), 7},
		{"instances done", m.GaugeValue(obs.MInstancesDone), 7},
		{"item executions", m.CounterValue(obs.MItemExecutions), 60},
		{"saved", m.GaugeValue(obs.MCacheSaved), 5},
		{"safe", m.CounterValue(obs.MVerdicts, "verdict", "safe"), 1},
		{"unsafe", m.CounterValue(obs.MVerdicts, "verdict", "unsafe"), 2},
		{"filtered", m.CounterValue(obs.MVerdicts, "verdict", "filtered"), 2},
		{"homo-invalid", m.CounterValue(obs.MVerdicts, "verdict", "homo-invalid"), 1},
		{"first trial", m.CounterValue(obs.MFirstTrial), 4},
		// Early stops p (R−(R−1))·3 and r (R−(R−2))·3; extension rounds
		// past the budget of R: q's two that convicted, s's one that did
		// not.
		{"early stop", m.CounterValue(obs.MTrialsSaved, "kind", "early-stop"), 9},
		{"reallocated", m.CounterValue(obs.MTrialsSaved, "kind", "reallocated"), 9},
		{"evidence", m.CounterValue(obs.MEvidenceRecords), 2},
		{"budget", m.CounterValue(obs.MEvidenceTruncated, "reason", "budget"), 1},
		{"leaked", m.CounterValue(obs.MAbandonedGoroutines, "test", "TestA"), 1},
		{"skipped", m.CounterValue(obs.MSkippedTests), 0},
		{"resumed", m.CounterValue(obs.MItemsResumed), 1},
		{"pred ratio", m.HistogramValue(obs.MSchedPredRatio).Count, 1},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range events {
		names = append(names, e.Event)
	}
	want := []string{obs.EvVerdict, obs.EvVerdict, obs.EvItemComplete, obs.EvItemComplete}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("events %v, want %v", names, want)
	}
	if stored := events[3].Attrs; len(stored) != 4 || stored["stored"] != true {
		t.Fatalf("stored item_complete carries %v, want app, item, test and stored only", stored)
	}
	if _, ok := events[2].Attrs["skipped"]; ok {
		t.Fatalf("a zero tally rode the event: %v", events[2].Attrs)
	}
}

// TestPreRunLeakCountedWithDistributor: a pre-run executes in the
// coordinator's process whoever executes phase 2, so a goroutine it
// abandons is the campaign's to report under a Distributor too.
func TestPreRunLeakCountedWithDistributor(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	defer close(release)
	app := syntheticApp(1)
	app.Tests = append(app.Tests, harness.UnitTest{
		Name:    "TestIgnoresTheClock",
		Timeout: 20 * time.Millisecond,
		Run:     func(*harness.T) { <-release },
	})
	for _, dist := range []Distributor{nil, &fakeDistributor{}} {
		res := Run(app, Options{Distributor: dist})
		if res.LeakedGoroutines != 1 {
			t.Errorf("Distributor %T: LeakedGoroutines = %d, want 1 (the abandoned pre-run)", dist, res.LeakedGoroutines)
		}
	}
}

// The scheduler's cold prediction counts the instance set its item runs:
// under coverage selection every item carries the campaign's explicit
// parameters as ForceParams (a cold index has no read evidence), and with
// quarantine off each item's predicted instance count must equal the
// Instances its execution reports — forced parameters included.
func TestPredictCountsForcedInstances(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("miniyarn")
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDistributor{o: obs.New()}
	opts := Options{
		Params:              []string{miniyarn.ParamHTTPPolicy, miniyarn.ParamTimelineEnabled},
		SelectCoverage:      true,
		QuarantineThreshold: math.MaxInt32,
		Seed:                1,
		Distributor:         d,
	}
	Run(app, opts)

	gen := testgen.New(app.Schema())
	gen.SetFilter(opts.Params)
	run := runner.New(app, RunnerOptions(app.Name, opts))
	p := &pipeline{app: app, gen: gen, opts: opts}
	forcedOnly := 0
	for _, item := range d.items {
		if len(item.ForceParams) == 0 {
			t.Fatalf("%s: cold coverage selection forced nothing", item.Test)
		}
		want := ExecuteItem(app, gen, run, opts, obs.NoSpan, item).Instances
		if got := int(p.predict(item, 1)) - 1; got != want {
			t.Errorf("%s: predicted %d instances, the item ran %d", item.Test, got, want)
		}
		if gen.Count(item.PreRun, testgen.InstancesOptions{}) < want {
			forcedOnly++
		}
	}
	if forcedOnly == 0 {
		t.Fatal("no item generates an instance only because a parameter was forced")
	}
}
