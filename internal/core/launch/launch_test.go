package launch

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
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

// TestResumeIntoATornCheckpoint: a checkpoint a kill tore mid-append,
// reopened to continue into (`-resume ck -checkpoint ck`), still resumes:
// ReadResume reads the records before the tear and those after it.
func TestResumeIntoATornCheckpoint(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	session := func(items int, test string) {
		t.Helper()
		j, err := dist.OpenJournal(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := campaign.ItemResult{ID: items - 1, Test: test, Executions: 3}
		for _, rec := range []dist.Record{
			{Kind: dist.KindHeader, App: "miniflink", Seed: 3, Items: items},
			{Kind: dist.KindDone, Item: res.ID, Test: test, Result: &res},
		} {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	session(1, "TestA")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"done","item":1,"te`) // killed mid-append
	f.Close()
	session(2, "TestB")
	done, err := ReadResume(path, "miniflink", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done["TestA"].Executions != 3 || done["TestB"].ID != 1 {
		t.Fatalf("resumed %+v, want TestA and TestB", done)
	}
}
