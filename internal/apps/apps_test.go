package apps

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/simtime"
)

// TestCensusEmptyAfterEveryTest: an execution leaves nothing behind. After
// RunOnce of every registered test of the five apps the clock's census is
// empty — every node loop, RPC handler and helper goroutine has returned,
// stopped by teardown or ended by the clock's shutdown — and the harness
// counts no leaked goroutine.
func TestCensusEmptyAfterEveryTest(t *testing.T) {
	t.Parallel()
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			for i := range app.Tests {
				var scale *simtime.Scale
				ut := app.Tests[i]
				body := ut.Run
				ut.Run = func(tt *harness.T) {
					scale = tt.Env.Scale
					body(tt)
				}
				out := harness.RunOnce(app, &ut, agent.Options{}, 11)
				if out.TimedOut {
					t.Errorf("%s timed out under the default configuration: %s", ut.Name, out.Msg)
				}
				if live := scale.Live(); live != 0 {
					t.Errorf("%s: %d goroutines still in the clock's census after RunOnce", ut.Name, live)
				}
			}
		})
	}
	t.Cleanup(func() {
		if n := harness.LeakedGoroutines(); n != 0 {
			t.Errorf("harness.LeakedGoroutines() = %d after the five suites", n)
		}
	})
}

// TestPreRunUsageDeterministic is ROADMAP's "Fix first" held as a test: the
// read set a pre-run reports feeds instance generation, the coverage index
// and test selection, so it must not depend on the scheduler. Every
// registered test's pre-run, repeated at GOMAXPROCS 1, 2 and 8 with other
// pre-runs running beside it, yields byte-identical Report.Usage.
func TestPreRunUsageDeterministic(t *testing.T) {
	repeats := 20
	if testing.Short() {
		repeats = 4
	}
	type job struct {
		app  *harness.App
		test *harness.UnitTest
	}
	var jobs []job
	for _, app := range All() {
		for i := range app.Tests {
			jobs = append(jobs, job{app, &app.Tests[i]})
		}
	}
	reference := make([]string, len(jobs)) // per test, the first Usage seen
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range next {
					app, test := jobs[j].app, jobs[j].test
					run := runner.New(app, runner.Options{BaseSeed: 1})
					for r := 0; r < repeats; r++ {
						usage, err := json.Marshal(run.PreRun(test).Report.Usage)
						if err != nil {
							t.Errorf("%s/%s: %v", app.Name, test.Name, err)
							return
						}
						if reference[j] == "" {
							reference[j] = string(usage)
						} else if reference[j] != string(usage) {
							t.Errorf("%s/%s: pre-run %d at GOMAXPROCS=%d read a different set:\n first %s\n  this %s",
								app.Name, test.Name, r, procs, reference[j], usage)
							return
						}
					}
				}
			}()
		}
		for j := range jobs {
			next <- j
		}
		close(next)
		wg.Wait()
	}
}
