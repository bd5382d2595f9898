package dist_test

import (
	"math"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
)

// TestExecutorsAgreeOnItemTallies: an item is accounted once, from its
// result, by the one completion step both executors call — so a campaign's
// item tallies are the same series for series whether the in-process pool
// or two worker subprocesses ran it. Live quarantine is off, the one thing
// that lets completion order change what runs.
func TestExecutorsAgreeOnItemTallies(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"miniflink", "minimr"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := func(o *obs.Observer) campaign.Options {
				return campaign.Options{Seed: 1, QuarantineThreshold: math.MaxInt32, Obs: o}
			}
			local, workers := obs.New(), obs.New()
			campaign.Run(app, opts(local))
			runDistributed(t, app, opts(workers), dist.Options{Workers: 2, WorkerCmd: workerFactory(),
				QuarantineThreshold: math.MaxInt32})

			want, got := foldSeries(t, local, itemFamilies), foldSeries(t, workers, itemFamilies)
			if want[`zebraconf_trials_saved_total{app="`+name+`",kind="early-stop"}`] == 0 {
				t.Fatalf("no early stops in process; the comparison misses the trial savings: %v", want)
			}
			for series, v := range want {
				if r, ok := got[series]; !ok || r != v {
					t.Errorf("%s: in process %v, workers %v (present %v)", series, v, r, ok)
				}
			}
			for series, v := range got {
				if _, ok := want[series]; !ok {
					t.Errorf("%s: only with workers (%v)", series, v)
				}
			}
		})
	}
}

// TestWorkerSkippedTestIsCounted: an item whose test the worker cannot
// resolve comes back marked SkippedTest, and the coordinator counts it like
// the in-process pool would (the worker's own registry is nil).
func TestWorkerSkippedTestIsCounted(t *testing.T) {
	t.Parallel()
	o := obs.New()
	coord := dist.New(dist.Options{
		App:       "miniflink",
		Workers:   1,
		WorkerCmd: workerFactory(),
		Config:    dist.Config{Seed: 1, Parallel: 1},
		Obs:       o,
	})
	res, err := coord.Execute(obs.NoSpan, []campaign.WorkItem{{ID: 0, Test: "TestNoSuchTest"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].SkippedTest {
		t.Fatalf("results = %+v, want one skipped test", res)
	}
	if n := o.Metrics.CounterValue(obs.MSkippedTests, "app", "miniflink"); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MSkippedTests, n)
	}
}
