package dist_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/obs"
)

// TestMain doubles the test binary as the worker subprocess: with
// ZEBRACONF_DIST_WORKER=1 it speaks the wire protocol on stdio instead
// of running tests (the standard helper-process pattern). Fault modes are
// injected by further env vars:
//
//	ZEBRACONF_DIST_KILL_AFTER=N  SIGKILL self after writing N stdout lines
//	ZEBRACONF_DIST_KILL_AFTER_RUNS=N  SIGKILL self as the N-th test execution ends
//	ZEBRACONF_DIST_HANG=1        acknowledge init, then never answer runs
//	ZEBRACONF_DIST_NEVER_READY=exit|mute  exit at once / never answer init
//
// and ZEBRACONF_DIST_DISK_CACHE=dir is the worker's own -disk-cache flag,
// under which it also copies every line it sends to dir/../sent-<pid>.
func TestMain(m *testing.M) {
	if os.Getenv("ZEBRACONF_DIST_WORKER") == "1" {
		runWorker()
		return
	}
	os.Exit(m.Run())
}

func runWorker() {
	switch os.Getenv("ZEBRACONF_DIST_NEVER_READY") {
	case "exit":
		os.Exit(0)
	case "mute":
		select {} // until the coordinator kills it at the ready deadline
	}
	if os.Getenv("ZEBRACONF_DIST_HB_FAKE") == "1" {
		runHBFakeWorker()
		return
	}
	if os.Getenv("ZEBRACONF_DIST_FAKE") != "" {
		runFakeWorker()
		return
	}
	if role := os.Getenv("ZEBRACONF_DIST_ATTEMPT"); role != "" {
		runAttemptFake(role)
		return
	}
	if os.Getenv("ZEBRACONF_DIST_HANG") == "1" {
		sc := bufio.NewScanner(os.Stdin)
		sc.Scan() // init
		fmt.Printf("{\"type\":\"ready\",\"pid\":%d}\n", os.Getpid())
		for sc.Scan() {
		} // swallow run messages forever
		os.Exit(0)
	}
	var w interface {
		Write([]byte) (int, error)
	} = os.Stdout
	if n, _ := strconv.Atoi(os.Getenv("ZEBRACONF_DIST_KILL_AFTER")); n > 0 {
		w = &killAfterWriter{w: os.Stdout, linesLeft: int32(n)}
	}
	resolve := apps.ByName
	if n, _ := strconv.Atoi(os.Getenv("ZEBRACONF_DIST_KILL_AFTER_RUNS")); n > 0 {
		resolve = func(name string) (*harness.App, error) {
			app, err := apps.ByName(name)
			if err != nil {
				return nil, err
			}
			return killedAfterRuns(app, int32(n)), nil
		}
	}
	env := dist.WorkerEnv{DiskCacheDir: os.Getenv("ZEBRACONF_DIST_DISK_CACHE")}
	if env.DiskCacheDir != "" {
		sent, err := os.Create(filepath.Join(filepath.Dir(env.DiskCacheDir), fmt.Sprintf("sent-%d", os.Getpid())))
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		w = io.MultiWriter(w, sent)
	}
	if err := dist.ServeWorkerEnv(os.Stdin, w, resolve, env); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// killAfterWriter lets N lines through, then SIGKILLs the process — the
// result reaches the coordinator, the worker dies uncleanly right after,
// exactly like a machine lost mid-campaign.
type killAfterWriter struct {
	w         *os.File
	linesLeft int32
}

func (k *killAfterWriter) Write(p []byte) (int, error) {
	n, err := k.w.Write(p)
	if atomic.AddInt32(&k.linesLeft, -int32(bytes.Count(p, []byte{'\n'}))) <= 0 {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return n, err
}

// killedAfterRuns is app with its test bodies counted: the moment the n-th
// execution is over the process is SIGKILLed — a machine lost mid-item,
// before the item's result is sent.
func killedAfterRuns(app *harness.App, n int32) *harness.App {
	lost := *app
	lost.Tests = append([]harness.UnitTest(nil), app.Tests...)
	var ran atomic.Int32
	for i := range lost.Tests {
		body := lost.Tests[i].Run
		lost.Tests[i].Run = func(t *harness.T) {
			defer func() {
				if ran.Add(1) == n {
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}()
			body(t)
		}
	}
	return &lost
}

func workerFactory(env ...string) func() *exec.Cmd {
	return func() *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "ZEBRACONF_DIST_WORKER=1")
		cmd.Env = append(cmd.Env, env...)
		return cmd
	}
}

// subsetOptions is a small deterministic minihdfs slice: one test with
// real instances (TestWriteRead x checksum parameters) plus two tests
// that pre-run to zero instances, giving three work items. Evidence
// capture is off unless a test sets EvidenceMax; with it on the result is
// just as byte-stable, read traces included
// (TestDistributedEvidenceMatchesLocal/minihdfs/workers2-evidence).
func subsetOptions(seed int64, o *obs.Observer) campaign.Options {
	return campaign.Options{
		Params: []string{"dfs.bytes-per-checksum", "dfs.checksum.type"},
		Tests:  []string{"TestWriteRead", "TestFsck", "TestMkdirList"},
		Seed:   seed,
		Obs:    o,
	}
}

func minihdfs(t *testing.T) *harness.App {
	t.Helper()
	app, err := apps.ByName("minihdfs")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// runDistributed runs a campaign with phase 2 executed by a Coordinator.
func runDistributed(t *testing.T, app *harness.App, opts campaign.Options, dopts dist.Options) *campaign.Result {
	t.Helper()
	return runHalted(t, app, opts, dopts, 0)
}

// runHalted is runDistributed with the coordinator halting once maxItems
// items are resolved (zero: never).
func runHalted(t *testing.T, app *harness.App, opts campaign.Options, dopts dist.Options, maxItems int) *campaign.Result {
	t.Helper()
	dopts.App = app.Name
	cfg := dist.ConfigFrom(opts)
	// TraceItems is a dist-layer concern ConfigFrom cannot derive from
	// campaign options; keep whatever the test asked for.
	cfg.TraceItems = dopts.Config.TraceItems
	dopts.Config = cfg
	dopts.Obs = opts.Obs
	coord := dist.New(dopts).WithLimits(0, maxItems)
	opts.Distributor = coord
	res := campaign.Run(app, opts)
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkerKillThenResumeByteIdentical SIGKILLs workers mid-campaign,
// halts the coordinator, resumes from the checkpoint, and requires the
// resumed campaign's merged result to be byte-identical to an
// uninterrupted workers=1 run on the same seed — with the checkpointed
// items provably not re-executed (the executions counter only counts
// work done this run).
func TestWorkerKillThenResumeByteIdentical(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	const seed = 23

	// Reference: uninterrupted single-worker distributed run.
	refObs := obs.New()
	ref := runDistributed(t, app, subsetOptions(seed, refObs), dist.Options{
		Workers:   1,
		WorkerCmd: workerFactory(),
	})
	refExec := refObs.Metrics.CounterValue(obs.MItemExecutions, "app", app.Name)

	// Interrupted run: every worker is SIGKILLed after its first result
	// (stdout line 2: ready, then one result); the coordinator halts via
	// MaxItems after two completions, leaving the third item undone.
	killObs := obs.New()
	runHalted(t, app, subsetOptions(seed, killObs), dist.Options{
		Workers:        1,
		WorkerCmd:      workerFactory("ZEBRACONF_DIST_KILL_AFTER=2"),
		CheckpointPath: ck,
	}, 2)
	if n := killObs.Metrics.CounterValue(obs.MWorkerCrashes, "app", app.Name, "reason", "crash"); n < 1 {
		t.Fatalf("worker crashes = %d, want >= 1 (the SIGKILL was not observed)", n)
	}

	recs, err := dist.ReadJournal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var doneItems int64
	var doneExec int64
	for _, rec := range recs {
		if rec.Kind == dist.KindDone && rec.Result != nil {
			doneItems++
			doneExec += rec.Result.Executions
		}
	}
	if doneItems == 0 || doneItems >= 3 {
		t.Fatalf("checkpointed items = %d, want a strict subset of the 3 items", doneItems)
	}

	// Resume: checkpointed items must be replayed, not re-executed.
	resObs := obs.New()
	resumed := runDistributed(t, app, resumeFrom(t, ck, app, subsetOptions(seed, resObs)), dist.Options{
		Workers:   1,
		WorkerCmd: workerFactory(),
	})
	if n := resObs.Metrics.CounterValue(obs.MItemsResumed, "app", app.Name); n != doneItems {
		t.Fatalf("items resumed = %d, want %d", n, doneItems)
	}
	gotExec := resObs.Metrics.CounterValue(obs.MItemExecutions, "app", app.Name)
	if gotExec != refExec-doneExec {
		t.Fatalf("resumed run executed %d unit tests, want %d (total %d minus %d checkpointed)",
			gotExec, refExec-doneExec, refExec, doneExec)
	}

	ref.Elapsed, resumed.Elapsed = 0, 0
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, resJSON) {
		t.Fatalf("merged results diverge after kill+resume:\n ref    %s\n resume %s", refJSON, resJSON)
	}
}

// TestKillResumeSingleEvidencePerItem is the forensic side of the
// crash-resume contract: after a SIGKILL mid-campaign and a resume into
// a fresh checkpoint, the new journal must hold exactly one completed
// record per item — replayed or re-executed, never both — and every
// verdict in it must still carry its evidence record.
func TestKillResumeSingleEvidencePerItem(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.jsonl")
	ck2 := filepath.Join(dir, "ck2.jsonl")
	const seed = 23

	opts := subsetOptions(seed, nil)
	opts.EvidenceMax = -1

	// Interrupted run: killed after the first result, halted after two.
	runHalted(t, app, opts, dist.Options{
		Workers:        1,
		WorkerCmd:      workerFactory("ZEBRACONF_DIST_KILL_AFTER=2"),
		CheckpointPath: ck,
	}, 2)

	// Resume into a different journal: a stored result the checkpoint does
	// not hold is journaled like an executed one, so ck2 is the
	// self-contained record of the campaign.
	runDistributed(t, app, resumeFrom(t, ck, app, opts), dist.Options{
		Workers:        1,
		WorkerCmd:      workerFactory(),
		CheckpointPath: ck2,
	})

	recs, err := dist.ReadJournal(ck2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[int]int)
	verdicts, withEvidence := 0, 0
	for _, rec := range recs {
		if rec.Kind != dist.KindDone || rec.Result == nil {
			continue
		}
		done[rec.Result.ID]++
		for _, v := range rec.Result.Verdicts {
			verdicts++
			if v.Evidence != nil {
				withEvidence++
			}
		}
	}
	for id := 0; id < 3; id++ {
		if done[id] != 1 {
			t.Fatalf("item %d journaled %d times, want exactly once (journal: %v)", id, done[id], done)
		}
	}
	if verdicts == 0 {
		t.Fatal("no verdicts in the resumed journal; the evidence check is vacuous")
	}
	if withEvidence != verdicts {
		t.Fatalf("evidence survived on %d of %d verdicts across the kill+resume", withEvidence, verdicts)
	}
}

func itemByTest(t *testing.T, res *campaign.Result, test string) campaign.ItemResult {
	t.Helper()
	for _, it := range res.Items {
		if it.Test == test {
			return it
		}
	}
	t.Fatalf("no item result for %s", test)
	return campaign.ItemResult{}
}

// TestRetriedItemEqualsFirstAttempt: the first worker is SIGKILLed as its
// third execution of TestWriteRead ends, and a fresh worker takes the retry.
// Nothing of the lost attempt survives it, so the accepted result is, byte
// for byte, what an uninterrupted run returns — execution counts included.
func TestRetriedItemEqualsFirstAttempt(t *testing.T) {
	t.Parallel()
	app := minihdfs(t)
	const seed = 11
	// One test, so one item, on one slot: the retry runs on the respawn.
	run := func(o *obs.Observer, first func() *exec.Cmd) []byte {
		var spawns atomic.Int32
		healthy := workerFactory()
		opts := subsetOptions(seed, o)
		opts.Tests = []string{"TestWriteRead"}
		res := runDistributed(t, app, opts, dist.Options{
			Workers: 1,
			WorkerCmd: func() *exec.Cmd {
				if spawns.Add(1) == 1 {
					return first()
				}
				return healthy()
			},
			ItemRetries: dist.DefaultItemRetries,
		})
		item, err := json.Marshal(itemByTest(t, res, "TestWriteRead"))
		if err != nil {
			t.Fatal(err)
		}
		return item
	}

	o := obs.New()
	retried := run(o, workerFactory("ZEBRACONF_DIST_KILL_AFTER_RUNS=3"))
	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", app.Name, "reason", "crash"); n != 1 {
		t.Fatalf("worker crashes = %d, want 1 (the first worker's SIGKILL)", n)
	}
	if n := o.Metrics.CounterValue(obs.MItemRetries, "app", app.Name); n != 1 {
		t.Fatalf("item retries = %d, want 1", n)
	}
	if first := run(nil, workerFactory()); !bytes.Equal(retried, first) {
		t.Errorf("the retried item differs from a first attempt:\n retried %s\n first   %s", retried, first)
	}
}

// TestStdioWorkersOpenTheDiskTierThemselves: two stdio workers given the
// same -disk-cache directory by their own flags read and write it directly.
// Nothing about the cache crosses the wire, the coordinator's handle on the
// directory is never touched, each executed run is written once, and a
// second campaign over the directory is served from it.
func TestStdioWorkersOpenTheDiskTierThemselves(t *testing.T) {
	t.Parallel()
	app, err := apps.ByName("miniyarn")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dir := filepath.Join(root, "dc")
	submit := func() (*campaign.Result, int64) {
		// The coordinator's own handle, as launch.prepare leaves it: behind
		// its in-process runner, not behind the workers.
		store, err := diskcache.Open(dir, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		opts := campaign.Options{Seed: 1, QuarantineThreshold: math.MaxInt32, CacheBackend: store, Obs: o}
		res := runDistributed(t, app, opts, dist.Options{
			Workers:             2,
			WorkerCmd:           workerFactory("ZEBRACONF_DIST_DISK_CACHE=" + dir),
			QuarantineThreshold: math.MaxInt32,
		})
		if st := store.Stats(); st.Writes != 0 || st.Misses != 0 {
			t.Errorf("the coordinator's store handle saw %d writes and %d misses, want none", st.Writes, st.Misses)
		}
		return res, o.Metrics.CounterValue(obs.MItemExecutions, "app", app.Name)
	}

	cold, executed := submit()
	sent, err := filepath.Glob(filepath.Join(root, "sent-*"))
	if err != nil || len(sent) != 2 {
		t.Fatalf("workers left %d sent-<pid> files (%v), want 2", len(sent), err)
	}
	for _, name := range sent {
		lines, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(lines, []byte(`"type":"cache-`)); n != 0 {
			t.Errorf("%s: %d cache- lines sent by a worker with its own disk tier", filepath.Base(name), n)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || executed == 0 || int64(len(entries)) != executed {
		t.Fatalf("%d entries on disk for %d executed runs (%v), want one each", len(entries), executed, err)
	}

	warm, _ := submit()
	if !reflect.DeepEqual(warm.Reported, cold.Reported) || len(cold.Reported) == 0 {
		t.Errorf("reported parameters diverge:\n warm %+v\n cold %+v", warm.Reported, cold.Reported)
	}
	if warm.Counts.Executed >= cold.Counts.Executed {
		t.Errorf("the second campaign executed %d runs, the cold one %d: nothing was reused", warm.Counts.Executed, cold.Counts.Executed)
	}
}

// TestWorkersTraceSingleTree pins cross-process trace stitching: a
// distributed campaign with per-item worker tracing must render as ONE
// span tree — a single root, and every other span's parent present in
// the same trace. Before stitching, worker fragments arrived with
// process-local span IDs and dangled as orphaned roots. The fragments are
// telemetry, not results: none of them reaches the checkpoint journal.
func TestWorkersTraceSingleTree(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	o := &obs.Observer{Tracer: obs.NewTracer(&buf)}
	app := minihdfs(t)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	runDistributed(t, app, subsetOptions(11, o), dist.Options{
		Workers:        2,
		WorkerCmd:      workerFactory(),
		Config:         dist.Config{TraceItems: true},
		CheckpointPath: ck,
	})
	journal, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journal, []byte(`"kind":"done"`)) {
		t.Fatalf("the journal holds no done record:\n%s", journal)
	}
	for _, line := range bytes.Split(journal, []byte{'\n'}) {
		if bytes.Contains(line, []byte(`"spans"`)) {
			t.Fatalf("a trace fragment was journaled: %.200s", line)
		}
	}

	spans, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[obs.SpanID]bool, len(spans))
	for _, s := range spans {
		ids[s.Span] = true
	}
	roots, orphans := 0, 0
	byName := make(map[string]int)
	for _, s := range spans {
		byName[s.Name]++
		if s.Parent == 0 {
			roots++
		} else if !ids[s.Parent] {
			orphans++
			t.Errorf("span %d (%s) references missing parent %d", s.Span, s.Name, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1 (names: %v)", roots, byName)
	}
	if orphans != 0 {
		t.Fatalf("%d orphaned spans after stitching", orphans)
	}
	// The worker-side fragments must actually be present: instance/round
	// spans only happen inside worker processes on this path.
	if byName["item"] == 0 || byName["instance"] == 0 {
		t.Fatalf("stitched trace is missing worker-side spans: %v", byName)
	}
}

// TestHangingItemsAreQuarantined drives the per-item deadline: a worker
// that never answers is killed, the item retried on a fresh worker, and
// after the retry budget the item is quarantined with the campaign
// completing anyway.
func TestHangingItemsAreQuarantined(t *testing.T) {
	t.Parallel()
	o := obs.New()
	items := []campaign.WorkItem{{ID: 0, Test: "TestA"}, {ID: 1, Test: "TestB"}}
	coord := dist.New(dist.Options{
		App:         "minihdfs",
		Workers:     1,
		WorkerCmd:   workerFactory("ZEBRACONF_DIST_HANG=1"),
		ItemRetries: 1,
		Obs:         o,
	}).WithLimits(150*time.Millisecond, 0)
	res, err := coord.Execute(obs.NoSpan, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2 quarantined placeholders", len(res))
	}
	for _, r := range res {
		if !r.Quarantined || r.Error == "" {
			t.Fatalf("item %d not quarantined: %+v", r.ID, r)
		}
	}
	if n := o.Metrics.CounterValue(obs.MItemsQuarantined, "app", "minihdfs"); n != 2 {
		t.Fatalf("quarantined counter = %d, want 2", n)
	}
	if n := o.Metrics.CounterValue(obs.MItemRetries, "app", "minihdfs"); n < 1 {
		t.Fatalf("retries = %d, want >= 1 (each item gets one fresh-worker retry)", n)
	}
	if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", "minihdfs", "reason", "timeout"); n < 1 {
		t.Fatalf("timeout kills = %d, want >= 1", n)
	}
}

// TestAllSlotsFailing verifies the unrecoverable case: when every worker
// slot burns its spawn budget, Execute fails instead of hanging.
func TestAllSlotsFailing(t *testing.T) {
	t.Parallel()
	coord := dist.New(dist.Options{
		App:     "minihdfs",
		Workers: 2,
		WorkerCmd: func() *exec.Cmd {
			return exec.Command("/nonexistent/zebraconf-worker")
		},
	})
	if _, err := coord.Execute(obs.NoSpan, []campaign.WorkItem{{ID: 0, Test: "T"}}); err == nil {
		t.Fatal("Execute succeeded with no spawnable workers")
	}
}

// TestCoordinatorAsDistributorFailures drives the Coordinator through the
// campaign.Distributor methods on the paths that leave it without results:
// a run that cannot open and a run whose every slot dies. Neither may panic
// or hang, and both report through Err.
func TestCoordinatorAsDistributorFailures(t *testing.T) {
	t.Parallel()
	item := campaign.WorkItem{ID: 0, Test: "T"}

	unopened := dist.New(dist.Options{App: "minihdfs"}) // no WorkerCmd: Start fails
	unopened.Begin(obs.NoSpan, 1)
	unopened.Submit(item)
	if res := unopened.Drain(); len(res) != 0 {
		t.Fatalf("Drain of a run that never opened = %+v", res)
	}
	if unopened.Err() == nil {
		t.Fatal("failed Begin: Err = nil")
	}

	// Every slot failing, under a real campaign: the pipeline must still
	// finish its pre-runs and come back with nothing to merge.
	dead := dist.New(dist.Options{
		App:     "minihdfs",
		Workers: 2,
		WorkerCmd: func() *exec.Cmd {
			return exec.Command("/nonexistent/zebraconf-worker")
		},
	})
	opts := subsetOptions(7, nil)
	opts.Distributor = dead
	res := campaign.Run(minihdfs(t), opts)
	if dead.Err() == nil {
		t.Fatal("Err() = nil with no spawnable workers")
	}
	if len(res.Items) != 0 || len(res.Reported) != 0 {
		t.Fatalf("campaign merged results from a failed run: %+v", res.Items)
	}
}

// TestNeverReadyWorkerIsVisible: a worker lost before it became ready —
// on any of the four paths — is a worker_crash with reason spawn in the
// event log, the counter and the live worker table alike, once per failed
// launch, until the slots retire and the run fails.
func TestNeverReadyWorkerIsVisible(t *testing.T) {
	t.Parallel()
	const workers, launches = 2, 3 // launches = the coordinator's spawnFailureLimit
	for _, tc := range []struct {
		name, app string
		cmd       func() *exec.Cmd
	}{
		{"cannot be obtained", "minihdfs", func() *exec.Cmd { return exec.Command("/nonexistent/zebraconf-worker") }},
		{"exits before ready", "minihdfs", workerFactory("ZEBRACONF_DIST_NEVER_READY=exit")},
		{"ready with an error", "no-such-app", workerFactory()},
		{"misses the ready deadline", "minihdfs", workerFactory("ZEBRACONF_DIST_NEVER_READY=mute")},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			o := obs.New()
			var events bytes.Buffer
			o.Events = obs.NewEventLog(&events)
			coord := dist.New(dist.Options{
				App:       tc.app,
				Workers:   workers,
				WorkerCmd: tc.cmd,
				Obs:       o,
			}).WithLimits(200*time.Millisecond, 0) // the ready deadline
			_, err := coord.Execute(obs.NoSpan, []campaign.WorkItem{{ID: 0, Test: "T"}})
			if want := fmt.Sprintf("all %d worker slots failed", workers); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Execute error = %v, want %q", err, want)
			}
			recs, err := obs.ReadEvents(&events)
			if err != nil {
				t.Fatal(err)
			}
			crashes := 0
			slots := make(map[float64]bool)
			for _, r := range recs {
				if r.Event != obs.EvWorkerCrash {
					continue
				}
				crashes++
				slots[r.Attrs["worker"].(float64)] = true
				if r.Attrs["reason"] != "spawn" {
					t.Errorf("crash reason %v, want spawn", r.Attrs["reason"])
				}
			}
			if crashes != workers*launches {
				t.Errorf("%d worker_crash events, want %d", crashes, workers*launches)
			}
			if n := o.Metrics.CounterValue(obs.MWorkerCrashes, "app", tc.app, "reason", "spawn"); n != int64(crashes) {
				t.Errorf("%s{reason=spawn} = %d, want the event count %d", obs.MWorkerCrashes, n, crashes)
			}
			if len(slots) != workers {
				t.Errorf("worker_crash events name slots %v, want all %d", slots, workers)
			}
		})
	}
}

// TestUnknownAppFailsCleanly covers the ready-with-error handshake: the
// worker process starts but cannot resolve the app, reports the reason,
// and the coordinator gives up with it instead of respawning forever.
func TestUnknownAppFailsCleanly(t *testing.T) {
	t.Parallel()
	coord := dist.New(dist.Options{
		App:       "no-such-app",
		Workers:   1,
		WorkerCmd: workerFactory(),
	})
	_, err := coord.Execute(obs.NoSpan, []campaign.WorkItem{{ID: 0, Test: "T"}})
	if err == nil {
		t.Fatal("Execute succeeded for an unresolvable app")
	}
}
