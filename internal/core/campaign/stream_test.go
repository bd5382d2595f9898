package campaign

import (
	"encoding/json"
	"testing"

	"zebraconf/internal/core/sched"
	"zebraconf/internal/obs"
)

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
// changes, so its pruning would make byte-equality between dispatch orders
// unachievable (and its merge-level correctness has its own test).
func schedOptions(policy sched.Policy, prof *sched.Profile, o *obs.Observer) Options {
	return Options{
		Parallelism:         2,
		QuarantineThreshold: 99,
		SchedPolicy:         policy,
		Profile:             prof,
		Obs:                 o,
	}
}

// dispatch is one way of ordering phase 2's work items.
type dispatch struct {
	policy sched.Policy
	warm   bool // start from warmProfile; otherwise no profile at all
}

// TestSchedEquivalence holds every dispatch setting to the same bytes: the
// scheduler changes when items run, never what they compute. Each row runs
// the synthetic campaign under ref and under got and compares the results
// with only Elapsed zeroed.
func TestSchedEquivalence(t *testing.T) {
	fifo := dispatch{sched.FIFO, false}
	lptWarm := dispatch{sched.LPT, true}
	cases := []struct {
		name     string
		n        int
		ref, got dispatch
		// engaged requires the LPT queue to have reordered dispatches (the
		// warm profile gives every test a distinct priority) and the
		// stream to have timed queue waits.
		engaged bool
	}{
		{"streamed-lpt-vs-fifo", 5, fifo, lptWarm, true},
		// Cold: predictions come from pre-run durations measured this run,
		// and order dispatch, nothing else.
		{"streamed-cold-vs-fifo", 4, fifo, dispatch{sched.LPT, false}, false},
		{"streamed-lpt-twice", 4, lptWarm, lptWarm, false},
	}
	run := func(n int, d dispatch, o *obs.Observer) (*Result, *sched.Profile) {
		var prof *sched.Profile
		if d.warm {
			prof = warmProfile(n)
		}
		return Run(syntheticApp(n), schedOptions(d.policy, prof, o)), prof
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, _ := run(tc.n, tc.ref, nil)
			o := obs.New()
			got, prof := run(tc.n, tc.got, o)
			got.Elapsed, want.Elapsed = 0, 0
			g, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := json.Marshal(want); string(g) != string(w) {
				t.Fatalf("results differ:\n got  %s\n want %s", g, w)
			}
			if len(want.Reported) == 0 {
				t.Fatal("reference reported nothing; the equivalence check is vacuous")
			}
			// Every executed item (the n conf-using tests plus the
			// node-less one) fed its duration back into the profile.
			if prof != nil && prof.Len() != tc.n+1 {
				t.Fatalf("profile holds %d estimates after the campaign, want %d", prof.Len(), tc.n+1)
			}
			if !tc.engaged {
				return
			}
			if n := o.Metrics.CounterValue(obs.MSchedReordered, "app", "synthetic"); n == 0 {
				t.Fatal("LPT streamed run recorded zero reorders; the policy never engaged")
			}
			if c := o.Metrics.Histogram(obs.MSchedQueueWait, nil, "app", "synthetic", "stage", "stream").Count(); c == 0 {
				t.Fatal("streamed run recorded no queue waits")
			}
		})
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
		Tests:       []string{"TestNoSuchTest"},
	})
	if len(res.PreRuns) != 0 || len(res.Reported) != 0 {
		t.Fatalf("empty campaign produced work: %+v", res)
	}
}
