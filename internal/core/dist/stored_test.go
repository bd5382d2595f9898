package dist_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/launch"
	"zebraconf/internal/obs"
)

// resumeFrom returns opts with the completed items of the checkpoint journal
// at ck as its stored results — the input launch builds for -resume, and
// the one set-up every resume test shares.
func resumeFrom(t *testing.T, ck string, app *harness.App, opts campaign.Options) campaign.Options {
	t.Helper()
	stored, err := launch.ReadResume(ck, app.Name, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	opts.Stored = stored
	return opts
}

// sansElapsed marshals a result with its wall clock zeroed.
func sansElapsed(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	cp := *res
	cp.Elapsed = 0
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeAcrossTestLists: a stored result is found by test name, so a
// journal written under -tests A,B,C resumes a campaign over B,C,D — B and
// C are not executed again, D is, and the report is the uninterrupted
// B,C,D campaign's byte for byte: no result lands on another test's item
// because the two campaigns number their items differently.
func TestResumeAcrossTestLists(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	const seed = 23
	over := func(o *obs.Observer, tests ...string) campaign.Options {
		opts := subsetOptions(seed, o)
		opts.Tests = tests
		return opts
	}
	workers := dist.Options{Workers: 1, WorkerCmd: workerFactory()}

	journaled := workers
	journaled.CheckpointPath = ck
	runDistributed(t, app, over(nil, "TestMkdirList", "TestWriteRead", "TestFsck"), journaled)

	ref := runDistributed(t, app, over(nil, "TestWriteRead", "TestFsck", "TestAppendReadBack"), workers)
	var executesD int64
	for _, it := range ref.Items {
		if it.Test == "TestAppendReadBack" {
			executesD = it.Executions
		}
	}
	if executesD == 0 {
		t.Fatal("TestAppendReadBack executes nothing; the test is vacuous")
	}

	o := obs.New()
	resumed := runDistributed(t, app, resumeFrom(t, ck, app, over(o, "TestWriteRead", "TestFsck", "TestAppendReadBack")), workers)
	if n := o.Metrics.CounterValue(obs.MItemsResumed, "app", app.Name); n != 2 {
		t.Errorf("items resumed = %d, want 2 (TestWriteRead, TestFsck)", n)
	}
	if n := o.Metrics.CounterValue(obs.MItemExecutions, "app", app.Name); n != executesD {
		t.Errorf("the resumed campaign executed %d unit tests, want TestAppendReadBack's %d", n, executesD)
	}
	if a, b := sansElapsed(t, ref), sansElapsed(t, resumed); !bytes.Equal(a, b) {
		t.Errorf("resumed across test lists:\n ref    %s\n resume %s", a, b)
	}
}

// TestInProcessResumeOfAWorkersJournal: the stored results are an input of
// campaign.Run, not of the coordinator, so a campaign in this process
// continues a -workers campaign's journal and reports what the sharded
// resume reports, byte for byte.
func TestInProcessResumeOfAWorkersJournal(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	const seed = 23
	// Halted after two of the three items, like the kill tests' campaign.
	runHalted(t, app, subsetOptions(seed, nil), dist.Options{
		Workers: 1, WorkerCmd: workerFactory(), CheckpointPath: ck,
	}, 2)
	opts := resumeFrom(t, ck, app, subsetOptions(seed, nil))
	if n := len(opts.Stored); n == 0 || n >= 3 {
		t.Fatalf("journal holds %d of the 3 items, want a strict subset", n)
	}
	sharded := runDistributed(t, app, opts, dist.Options{Workers: 1, WorkerCmd: workerFactory()})
	inProcess := campaign.Run(app, opts)
	if a, b := sansElapsed(t, sharded), sansElapsed(t, inProcess); !bytes.Equal(a, b) {
		t.Errorf("resumed in process:\n sharded    %s\n in process %s", a, b)
	}
}

// TestResumeOfAJournalWithTraceFragments: journals once carried each worker's
// trace fragment inside the result ("result":{"spans":[…]}). Such a journal
// still resumes: the fragment is an unknown field, dropped on decode, and the
// resumed campaign reports what the journaled one did, byte for byte.
func TestResumeOfAJournalWithTraceFragments(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	const seed = 23
	ref := runDistributed(t, app, subsetOptions(seed, nil), dist.Options{
		Workers: 1, WorkerCmd: workerFactory(), CheckpointPath: ck,
	})
	journal, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	frag := `"result":{"spans":[{"span":1,"name":"instance","start_us":0,"dur_us":5},{"span":2,"parent":1,"name":"round","start_us":1,"dur_us":2}],`
	legacy := bytes.ReplaceAll(journal, []byte(`"result":{`), []byte(frag))
	if n := bytes.Count(legacy, []byte(`"spans"`)); n != len(ref.Items) {
		t.Fatalf("%d of %d done records carry a fragment", n, len(ref.Items))
	}
	if err := os.WriteFile(ck, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	resumed := campaign.Run(app, resumeFrom(t, ck, app, subsetOptions(seed, o)))
	if n := o.Metrics.CounterValue(obs.MItemsResumed, "app", app.Name); n != int64(len(ref.Items)) {
		t.Errorf("items resumed = %d, want %d", n, len(ref.Items))
	}
	if a, b := sansElapsed(t, ref), sansElapsed(t, resumed); !bytes.Equal(a, b) {
		t.Errorf("resumed from fragment-carrying journal:\n ref    %s\n resume %s", a, b)
	}
}

// TestResumedEventLogClosesEveryItem: a stored result completes its item
// with the same one item_complete event an executed one gets, so after a
// fully resumed campaign the live item table — and the one folded back
// from its events.jsonl — has every item done and none queued, and the
// resumed counter is the number of those events that say stored. Nothing
// executes, so no worker is started, and the journal — resumed from and
// checkpointed into — gains no second record of anything.
func TestResumedEventLogClosesEveryItem(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("miniyarn")
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	workers := dist.Options{Workers: 2, WorkerCmd: workerFactory(), CheckpointPath: ck}
	runDistributed(t, app, campaign.Options{Seed: 1}, workers)

	var log bytes.Buffer
	live := obs.New()
	live.Status = obs.NewStatus()
	live.Events = obs.NewEventLog(&log)
	runDistributed(t, app, resumeFrom(t, ck, app, campaign.Options{Seed: 1, Obs: live}), workers)

	recs, err := obs.ReadEvents(&log)
	if err != nil {
		t.Fatal(err)
	}
	items := int64(len(app.Tests))
	var queued, stored int64
	for _, rec := range recs {
		switch rec.Event {
		case obs.EvItemQueued:
			queued++
		case obs.EvItemComplete:
			if rec.Attrs["stored"] == true {
				stored++
			}
		case obs.EvWorkerSpawn:
			t.Error("a campaign with nothing to execute spawned a worker")
		}
	}
	if queued != items || stored != items {
		t.Errorf("%d item_queued and %d stored item_complete events for %d items", queued, stored, items)
	}
	// Resumed into the journal it resumed from: nothing is written twice.
	journal, err := dist.ReadJournal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var done int64
	for _, rec := range journal {
		if rec.Kind == dist.KindDone {
			done++
		}
	}
	if done != items {
		t.Errorf("the journal holds %d done records for %d items", done, items)
	}
	for name, o := range map[string]*obs.Observer{"live": live, "replayed": replay(recs)} {
		cs := o.Campaign()
		if cs.ItemsQueued != 0 || cs.ItemsRunning != 0 || int64(cs.ItemsDone) != items {
			t.Errorf("%s: %d queued, %d running, %d done of %d items",
				name, cs.ItemsQueued, cs.ItemsRunning, cs.ItemsDone, items)
		}
		if n := o.Metrics.CounterValue(obs.MItemsResumed, "app", app.Name); n != stored {
			t.Errorf("%s: %s = %d, want %d", name, obs.MItemsResumed, n, stored)
		}
	}
}
