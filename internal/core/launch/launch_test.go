package launch

import (
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
)

// TestCoordinatorTierOnlyForSessions pins who gets which cache tier: the
// open store always backs the launcher's own runner, and goes behind the
// coordinator only for gateway workers, which cannot open it themselves —
// a subprocess worker opens the directory from its own flags. The wire bit
// is the coordinator's to derive from that (dist's tapped sessions pin it),
// never the launcher's to set.
func TestCoordinatorTierOnlyForSessions(t *testing.T) {
	app, err := apps.ByName("miniflink")
	if err != nil {
		t.Fatal(err)
	}
	store, err := diskcache.Open(t.TempDir(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := dist.ListenGateway("127.0.0.1:0", "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for name, tc := range map[string]struct {
		env    Env
		shared bool
	}{
		"subprocess workers": {Env{Cache: store, WorkerCmd: func() *exec.Cmd { return nil }}, false},
		"gateway workers":    {Env{Cache: store, Sessions: gw}, true},
	} {
		l, err := prepare(app, baseSpec(), tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if l.opts.CacheBackend != store {
			t.Errorf("%s: the store is not behind the launcher's own runner", name)
		}
		if got := l.dopts.SharedBackend != nil; got != tc.shared {
			t.Errorf("%s: coordinator tier = %v, want %v", name, got, tc.shared)
		}
		if l.dopts.Config.SharedPersistent {
			t.Errorf("%s: the launcher set the wire's shared_persistent itself", name)
		}
	}
	noCache := baseSpec()
	noCache.ExecCache = false
	l, err := prepare(app, noCache, Env{Cache: store, Sessions: gw})
	if err != nil {
		t.Fatal(err)
	}
	if l.dopts.SharedBackend != nil {
		t.Error("-exec-cache=false: the coordinator still fronts the store")
	}
}

// TestUnchangedRerunIsTheWarmRun: a replayed campaign's report is the full
// run's bytes. For each app at -seed 7 -quarantine 0, a cold run seeds the
// ledger directory, a warm `-mode run` against it is the reference, and an
// unchanged `-mode rerun` — every test's result taken from the item store —
// must marshal to the same bytes, with only the wall clock and the three
// counts of what this process executed masked: pre-run reports, mapping
// statistics and Table 5's rows, item numbering (and with it which test's
// instance is a parameter's Example and Evidence) and NumTests included.
// minihdfs runs the six tests below, two of which read no configuration
// and are deselected warm, rather than nine seconds of its whole suite
// twice; CI's rerun-smoke job makes the same comparison on all of it.
func TestUnchangedRerunIsTheWarmRun(t *testing.T) {
	t.Parallel()
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			spec := DefaultSpec()
			spec.App, spec.Seed, spec.Quarantine = app.Name, 7, 0
			if app.Name == "minihdfs" {
				spec.Tests = List{"TestWriteRead", "TestAppendReadBack", "TestMkdirList", "TestFsck", "TestSplitPath", "TestChecksumTypeMismatch"}
			}
			env := Env{LedgerDir: t.TempDir()}
			masked := func(env Env) []byte {
				out, err := Campaign(context.Background(), app, spec, env)
				if err != nil || out.SaveErr != nil {
					t.Fatal(err, out.SaveErr)
				}
				res := *out.Result
				res.Elapsed, res.LeakedGoroutines = 0, 0
				res.Counts.Executed, res.Counts.ExecutionsSaved = 0, 0
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			masked(env)
			warm := masked(env)
			env.Rerun = func(p *campaign.RerunPlan) {
				if p == nil || len(p.Changed) != 0 || len(p.Replayed) == 0 {
					t.Errorf("an unchanged rerun plans %+v", p)
				}
			}
			if rerun := masked(env); !bytes.Equal(warm, rerun) {
				t.Errorf("the rerun's result is not the warm run's:\n warm  %s\n rerun %s", warm, rerun)
			}
		})
	}
}
