package campaign

import (
	"encoding/json"
	"testing"

	"zebraconf/internal/core/sched"
	"zebraconf/internal/obs"
)

// normalizedResult renders a result with the timing field zeroed — the
// only field scheduling is allowed to change.
func normalizedResult(t *testing.T, res *Result) string {
	t.Helper()
	cp := *res
	cp.Elapsed = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// warmProfile returns a profile with distinct durations per synthetic
// test, so LPT has real skew to reorder by (reverse declaration order).
func warmProfile(numTests int) *sched.Profile {
	p := sched.NewProfile()
	for i := 0; i < numTests; i++ {
		p.Record("synthetic", testName(i), float64(i+1))
	}
	return p
}

func testName(i int) string {
	return "TestExchange" + string(rune('0'+i))
}

// schedOptions builds campaign options for the scheduling equivalence
// tests. QuarantineThreshold is lifted out of reach: live cross-test
// quarantine fires on completion order, which is exactly what scheduling
// changes, so its timing-dependent pruning would make byte-equality
// between dispatch orders vacuousy unachievable (and its merge-level
// correctness has its own test).
func schedOptions(policy sched.Policy, stream bool, prof *sched.Profile, o *obs.Observer) Options {
	return Options{
		Parallelism:         2,
		QuarantineThreshold: 99,
		SchedPolicy:         policy,
		Stream:              stream,
		Profile:             prof,
		Obs:                 o,
	}
}

// TestStreamedLPTMatchesBarrieredFIFO is the tentpole's safety property
// in-process: streaming phase 1 into phase 2 under LPT ordering with a
// warm profile must produce a byte-identical result to the barriered
// FIFO baseline — the scheduler changes when items run, never what they
// compute.
func TestStreamedLPTMatchesBarrieredFIFO(t *testing.T) {
	t.Parallel()
	const n = 5
	baseline := Run(syntheticApp(n), schedOptions(sched.FIFO, false, nil, nil))
	o := obs.New()
	streamed := Run(syntheticApp(n), schedOptions(sched.LPT, true, warmProfile(n), o))

	if got, want := normalizedResult(t, streamed), normalizedResult(t, baseline); got != want {
		t.Fatalf("streamed LPT diverged from barriered FIFO:\n got  %s\n want %s", got, want)
	}
	if len(baseline.Reported) == 0 {
		t.Fatal("baseline reported nothing; the equivalence check is vacuous")
	}
	// The warm profile gives every test a distinct priority, so the LPT
	// queue must actually have reordered dispatches.
	if n := o.Metrics.CounterValue(obs.MSchedReordered, "app", "synthetic"); n == 0 {
		t.Fatal("LPT streamed run recorded zero reorders; the policy never engaged")
	}
	if c := o.Metrics.Histogram(obs.MSchedQueueWait, nil, "app", "synthetic", "stage", "stream").Count(); c == 0 {
		t.Fatal("streamed run recorded no queue waits")
	}
}

// TestStreamedColdStillMatches covers the cold-campaign fallback: with
// no profile at all, predictions come from pre-run durations measured
// this run (nondeterministic values), and the result must still be
// byte-identical — predictions order dispatch, nothing else.
func TestStreamedColdStillMatches(t *testing.T) {
	t.Parallel()
	const n = 4
	baseline := Run(syntheticApp(n), schedOptions(sched.FIFO, false, nil, nil))
	streamed := Run(syntheticApp(n), schedOptions(sched.LPT, true, nil, nil))
	if got, want := normalizedResult(t, streamed), normalizedResult(t, baseline); got != want {
		t.Fatalf("cold streamed run diverged from barriered FIFO:\n got  %s\n want %s", got, want)
	}
}

// TestStreamedDeterministic runs the same streamed LPT campaign twice
// with the same starting profile: identical results, and the profile
// ends up warm with one estimate per conf-using work item.
func TestStreamedDeterministic(t *testing.T) {
	t.Parallel()
	const n = 4
	p1, p2 := warmProfile(n), warmProfile(n)
	a := Run(syntheticApp(n), schedOptions(sched.LPT, true, p1, nil))
	b := Run(syntheticApp(n), schedOptions(sched.LPT, true, p2, nil))
	if got, want := normalizedResult(t, a), normalizedResult(t, b); got != want {
		t.Fatalf("same seed + profile, different results:\n a %s\n b %s", got, want)
	}
	// Every executed item (the n conf-using tests plus the node-less one)
	// fed its duration back into the profile.
	if p1.Len() != n+1 {
		t.Fatalf("profile holds %d estimates after the campaign, want %d", p1.Len(), n+1)
	}
}

// TestBarrieredLPTMatchesFIFO isolates the ordering ablation on the
// barriered path: -sched=lpt -stream=false against the full baseline.
func TestBarrieredLPTMatchesFIFO(t *testing.T) {
	t.Parallel()
	const n = 4
	baseline := Run(syntheticApp(n), schedOptions(sched.FIFO, false, nil, nil))
	lpt := Run(syntheticApp(n), schedOptions(sched.LPT, false, warmProfile(n), nil))
	if got, want := normalizedResult(t, lpt), normalizedResult(t, baseline); got != want {
		t.Fatalf("barriered LPT diverged from FIFO:\n got  %s\n want %s", got, want)
	}
}

// TestTailLatencyAccounting pins the wait-vs-run split: every item's run
// time and every task's queue wait land in their histograms, so a slow
// campaign is attributable to waiting vs running.
func TestTailLatencyAccounting(t *testing.T) {
	t.Parallel()
	o := obs.New()
	Run(syntheticApp(3), Options{Parallelism: 2, Obs: o})
	if c := o.Metrics.Histogram(obs.MItemRunSeconds, nil, "app", "synthetic", "stage", "instances").Count(); c == 0 {
		t.Fatal("no per-item run times recorded")
	}
	if c := o.Metrics.Histogram(obs.MSchedQueueWait, nil, "app", "synthetic", "stage", "stream").Count(); c == 0 {
		t.Fatal("no queue waits recorded")
	}
}

// TestStreamedEmptyCampaign covers the zero-test edge: the pipeline must
// close its queue instead of deadlocking the worker pool.
func TestStreamedEmptyCampaign(t *testing.T) {
	t.Parallel()
	app := syntheticApp(2)
	res := Run(app, Options{
		Parallelism: 2,
		Stream:      true,
		Tests:       []string{"TestNoSuchTest"},
	})
	if len(res.PreRuns) != 0 || len(res.Reported) != 0 {
		t.Fatalf("empty campaign produced work: %+v", res)
	}
}
