package launch

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
)

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
