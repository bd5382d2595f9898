package launch

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/obs"
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
				out, err := Campaign(app, spec, env)
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

// TestCheckpointNeedsWorkers: only a coordinator writes the checkpoint
// journal, so an in-process campaign given -checkpoint is refused before
// it executes anything, rather than running and leaving no journal.
func TestCheckpointNeedsWorkers(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("miniflink")
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec()
	spec.App, spec.Seed = app.Name, 1
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	o := obs.New()
	out, err := Campaign(app, spec, Env{Obs: o, CheckpointPath: ck})
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("in-process campaign with a checkpoint: outcome %v, error %v; want a refusal naming -workers", out, err)
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("refused campaign left %s (%v)", ck, err)
	}
	var m bytes.Buffer
	if err := o.Metrics.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(m.String(), obs.MExecutions) {
		t.Errorf("refused campaign executed:\n%s", m.String())
	}
}

// FuzzReadResume attacks the one parser -resume runs on bytes this process
// did not just write. Whatever the journal holds, ReadResume does not
// panic; a corrupt line before the last is an error; a success has seen
// headers, all of the resuming app and seed, and maps every test to its
// last `done` record; and a journal that reads cleanly, followed by any prefix
// of one more record and no newline (a writer killed mid-append), reads
// as the journal alone.
func FuzzReadResume(f *testing.F) {
	const app, seed = "miniflink", 3
	path := filepath.Join(f.TempDir(), "ck.jsonl")
	j, err := dist.OpenJournal(path, 0)
	if err != nil {
		f.Fatal(err)
	}
	first := campaign.ItemResult{ID: 0, Test: "TestA", Executions: 3, ReachableParams: []string{"flink.task.slots"}}
	again := campaign.ItemResult{ID: 2, Test: "TestA", Executions: 5}
	other := campaign.ItemResult{ID: 1, Test: "TestB", Quarantined: true, Error: "worker crashed"}
	for _, rec := range []dist.Record{
		{Kind: dist.KindHeader, App: app, Seed: seed, Items: 3},
		{Kind: dist.KindDone, Item: 0, Test: "TestA", Result: &first},
		{Kind: dist.KindGiveUp, Item: 1, Test: "TestB", Reason: "crashes"},
		{Kind: dist.KindDone, Item: 1, Test: "TestB", Result: &other},
		{Kind: dist.KindHeader, App: app, Seed: seed, Items: 3},
		{Kind: dist.KindDone, Item: 2, Test: "TestA", Result: &again},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seed3, seed4 := []byte(`"seed":3`), []byte(`"seed":4`)
	second := bytes.LastIndex(written, seed3)
	for _, journal := range [][]byte{
		written,
		slices.Concat(written, []byte(`{"kind":"done","item":3,"te`)),       // torn tail
		bytes.Replace(written, seed3, seed4, 1),                             // first header of another seed
		slices.Concat(written[:second], seed4, written[second+len(seed3):]), // second header of another seed
		bytes.Replace(written, []byte(`"give-up"`), []byte(`"give-up`), 1),  // corrupt middle line
		[]byte(`{"kind":"done","test":"TestA","result":{"id":7}}` + "\n"),   // no header
	} {
		f.Add(journal, uint(0))
	}
	f.Add(written, uint(17))

	read := func(t *testing.T, journal []byte) (map[string]campaign.ItemResult, error) {
		p := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(p, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		return ReadResume(p, app, seed)
	}
	f.Fuzz(func(t *testing.T, journal []byte, cut uint) {
		got, err := read(t, journal)

		// The journal as a reader expects it: one record per line, the
		// last test's done record winning, and a bad line forgiven only
		// at the end.
		lines := bytes.Split(journal, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1]
		}
		want := make(map[string]campaign.ItemResult)
		headers, ours, corrupt, corruptBeforeLast := 0, true, false, false
		for i, line := range lines {
			var rec dist.Record
			if json.Unmarshal(line, &rec) != nil {
				corrupt = true
				corruptBeforeLast = corruptBeforeLast || i < len(lines)-1
				continue
			}
			switch rec.Kind {
			case dist.KindHeader:
				headers++
				ours = ours && rec.App == app && rec.Seed == seed
			case dist.KindDone:
				if rec.Result != nil {
					want[rec.Test] = *rec.Result
				}
			}
		}
		if corruptBeforeLast && err == nil {
			t.Fatalf("a corrupt line before the last read cleanly as %+v", got)
		}
		if err != nil {
			return
		}
		if headers == 0 || !ours {
			t.Fatalf("read %+v from a journal whose %d headers are not all of %s seed %d", got, headers, app, seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("read %+v, want the last done record of each test: %+v", got, want)
		}

		if corrupt || (len(journal) > 0 && journal[len(journal)-1] != '\n') {
			return
		}
		tail, err := json.Marshal(dist.Record{Kind: dist.KindDone, Item: 9, Test: "TestA", Result: &first})
		if err != nil {
			t.Fatal(err)
		}
		torn := append(append([]byte(nil), journal...), tail[:cut%uint(len(tail))]...)
		if tornGot, err := read(t, torn); err != nil || !reflect.DeepEqual(tornGot, got) {
			t.Fatalf("a torn tail %q changed the read: %+v (%v), want %+v", tail[:cut%uint(len(tail))], tornGot, err, got)
		}
	})
}
