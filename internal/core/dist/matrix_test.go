package dist_test

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/obs"
)

// The equivalence matrix is "same seed ⇒ same bytes" for every way of
// running a campaign: each (app, seed) baseline runs once in process, and
// each row changes one thing about how the campaign is executed — worker
// subprocesses, dispatch order, slots, the sampler, the execution cache,
// evidence capture, stopping rule, test selection, pooling, the order of
// -params and -tests — and compares its result with the baseline (or with
// the row named in ref) under the row's view. A verdict that depends on
// scheduling, sharding or caching shows up here as a byte difference.
//
// Its rows are grouped under the tests they grew out of and run as
// <test>/<case>/<row>. A group runs each case's baseline once, and a row
// another row refers to once.
func TestEquivalenceMatrix(t *testing.T)                  { runMatrix(t) }
func TestDistributedMatchesLocal(t *testing.T)            { runMatrix(t) }
func TestDistributedEvidenceMatchesLocal(t *testing.T)    { runMatrix(t) }
func TestItemResultSameInProcessAndInWorker(t *testing.T) { runMatrix(t) }
func TestSchedEquivalenceAllApps(t *testing.T)            { runMatrix(t) }
func TestPerfSamplerEquivalenceAllApps(t *testing.T)      { runMatrix(t) }
func TestCacheEquivalenceAllApps(t *testing.T)            { runMatrix(t) }
func TestSeqEquivalenceAllApps(t *testing.T)              { runMatrix(t) }
func TestSelectionEquivalenceAllApps(t *testing.T)        { runMatrix(t) }

// runMatrix runs t's group of rows on every case.
func runMatrix(t *testing.T) {
	t.Parallel()
	rows := groups[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("no rows for %s", t.Name())
	}
	var selected, deselected atomic.Int64
	cases := matrixCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			base := campaign.Run(c.app, c.opts)
			if len(base.Reported) == 0 {
				t.Fatalf("%s baseline reported nothing; the matrix is vacuous", c.name)
			}
			c.ix = coverage.Build(c.app.Name, c.opts.Seed, "", base.Coverage, c.app.Schema())
			c.runs[""] = ran{base, c.opts}
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) {
					res, opts := c.get(t, r.name)
					ref, _ := c.get(t, r.ref)
					if got, want := mask(t, res, r.view), mask(t, ref, r.view); got != want {
						t.Fatalf("%s differs from %q (view %d):\n got  %s\n want %s", r.name, r.ref, r.view, got, want)
					}
					if r.check != nil {
						r.check(t, c, opts, res)
					}
					if r.name == "select-coverage" {
						selected.Add(1)
						deselected.Add(int64(len(res.DeselectedTests)))
					}
				})
			}
		})
	}
	t.Cleanup(func() {
		if selected.Load() == int64(len(cases)) && deselected.Load() == 0 {
			t.Error("no app deselected any test; the selection rows were never exercised")
		}
	})
}

// subsets are the five apps' small campaigns. Each convicts a parameter;
// minihdfs's TestFsck reads neither of its parameters, so selection skips it.
var subsets = []struct {
	app           string
	params, tests []string
}{
	{"minihdfs",
		[]string{"dfs.bytes-per-checksum", "dfs.checksum.type"},
		[]string{"TestWriteRead", "TestFsck", "TestMkdirList"}},
	{"miniyarn",
		[]string{"yarn.scheduler.maximum-allocation-mb", "yarn.timeline-service.enabled"},
		[]string{"TestAllocationAtMaxMB", "TestTimelineQuery", "TestSubmitApplication"}},
	{"minihbase",
		[]string{"hadoop.rpc.protection", "hbase.client.scanner.caching", "hbase.regionserver.thrift.compact"},
		[]string{"TestPutGet", "TestThriftAdmin"}},
	{"minimr",
		[]string{"mapreduce.jobhistory.max-age-ms", "mapreduce.jobhistory.address", "mapreduce.map.output.compress.codec"},
		[]string{"TestWordCount", "TestHistoryArchive"}},
	{"miniflink",
		[]string{"akka.ssl.enabled", "taskmanager.numberOfTaskSlots"},
		[]string{"TestJobSubmission", "TestSlotAllocationExact", "TestDataExchange"}},
}

// matrixCases are the subsets at seed 7, and the minihdfs one again at
// seed 11.
func matrixCases(t *testing.T) []*matrixCase {
	rows := map[string]row{}
	for _, g := range groups {
		for _, r := range g {
			rows[r.name] = r
		}
	}
	var cases []*matrixCase
	add := func(name, app string, params, tests []string, seed int64) {
		a, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &matrixCase{name: name, app: a, rows: rows, runs: map[string]ran{},
			opts: campaign.Options{Params: params, Tests: tests, Seed: seed}})
	}
	for _, s := range subsets {
		add(s.app, s.app, s.params, s.tests, 7)
	}
	add("minihdfs-seed11", "minihdfs", subsets[0].params, subsets[0].tests, 11)
	return cases
}

type matrixCase struct {
	name string
	app  *harness.App
	opts campaign.Options // the baseline's
	rows map[string]row   // every group's, by name
	ix   *coverage.Index  // the warm index built from the baseline
	runs map[string]ran   // by row name; "" is the baseline
}

// ran is a row's result and the options it ran with.
type ran struct {
	res  *campaign.Result
	opts campaign.Options
}

// row is one way of running the case's campaign.
type row struct {
	name    string
	workers bool // phase 2 runs on a Coordinator with two stdio workers
	sampled bool // a 1 ms perf sampler snapshots the observer throughout
	warm    bool // the campaign gets the warm index built from the baseline
	set     func(o *campaign.Options, d *dist.Options)
	ref     string // the row compared against; "" is the baseline
	view    view
	check   func(t *testing.T, c *matrixCase, opts campaign.Options, res *campaign.Result)
}

// view is how much of a result a row must reproduce.
type view int

const (
	bytesView    view = iota // the result JSON with Elapsed zeroed
	sansExec                 // also Counts.Executed and ExecutionsSaved zeroed
	sansEvidence             // also every report's Evidence dropped
	paramTruth               // each report's Param and Truth only
	reportedView             // the Reported slice only
)

// mask renders res as JSON under v: the matrix's one projection.
func mask(t *testing.T, res *campaign.Result, v view) string {
	t.Helper()
	cp := *res
	cp.Elapsed = 0
	var out any = &cp
	switch v {
	case sansExec:
		cp.Counts.Executed, cp.Counts.ExecutionsSaved = 0, 0
	case sansEvidence:
		cp.Reported = slices.Clone(res.Reported)
		for i := range cp.Reported {
			cp.Reported[i].Evidence = nil
		}
	case paramTruth:
		pt := make([]string, len(res.Reported))
		for i, r := range res.Reported {
			pt[i] = r.Param + " " + r.Truth.String()
		}
		out = pt
	case reportedView:
		out = res.Reported
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// get returns the named row's result and options ("" is the baseline),
// running the row, whatever its group, if it has not run on c yet.
func (c *matrixCase) get(t *testing.T, name string) (*campaign.Result, campaign.Options) {
	t.Helper()
	if r, ok := c.runs[name]; ok {
		return r.res, r.opts
	}
	r, ok := c.rows[name]
	if !ok {
		t.Fatalf("no row %q", name)
	}
	res, opts := c.run(t, r)
	c.runs[name] = ran{res, opts}
	return res, opts
}

func (c *matrixCase) run(t *testing.T, r row) (*campaign.Result, campaign.Options) {
	t.Helper()
	opts := c.opts
	d := dist.Options{Workers: 2, WorkerCmd: workerFactory()}
	if r.warm {
		opts.CoverageIndex = c.ix
	}
	if r.set != nil {
		r.set(&opts, &d)
	}
	if r.sampled {
		o := obs.New()
		o.Sampler = obs.NewSampler(o, time.Millisecond, io.Discard, 0)
		o.Sampler.Start()
		defer o.Sampler.Stop()
		opts.Obs = o
	}
	if r.workers {
		return runDistributed(t, c.app, opts, d), opts
	}
	return campaign.Run(c.app, opts), opts
}

// groups are the matrix's rows, under the tests that run them.
var groups = map[string][]row{
	"TestEquivalenceMatrix": {
		{name: "parallel1", set: func(o *campaign.Options, _ *dist.Options) { o.Parallelism = 1 }},
		// Pooling saves executions only where most of a pool is safe: both of
		// miniflink's parameters are convicted, so its pools split down to
		// leaves and cost more than running flat. Only the verdicts must agree.
		{name: "no-pool", set: func(o *campaign.Options, _ *dist.Options) { o.DisablePooling = true },
			view: reportedView},
		{name: "params-reversed", set: func(o *campaign.Options, _ *dist.Options) { o.Params = reversed(o.Params) }},
		{name: "tests-reversed", set: func(o *campaign.Options, _ *dist.Options) { o.Tests = reversed(o.Tests) }},
		{name: "tests-duplicated", set: func(o *campaign.Options, _ *dist.Options) {
			o.Tests = append(slices.Clip(o.Tests), o.Tests...)
		}},
	},
	"TestDistributedMatchesLocal": {
		{name: "workers2", workers: true, check: func(t *testing.T, c *matrixCase, _ campaign.Options, res *campaign.Result) {
			want, err := c.ix.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			got, err := coverage.Build(c.app.Name, c.opts.Seed, "", res.Coverage, c.app.Schema()).Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if len(c.ix.Tests) == 0 || string(got) != string(want) {
				t.Fatalf("coverage index differs from (or is as empty as) the baseline's:\n workers2 %s\n baseline %s", got, want)
			}
		}},
	},
	"TestDistributedEvidenceMatchesLocal": {
		{name: "evidence", set: evidence, view: sansEvidence, check: traced},
		{name: "workers2-evidence", workers: true, set: evidence, ref: "evidence", check: traced},
	},
	"TestItemResultSameInProcessAndInWorker": {
		{name: "worker-session", set: func(o *campaign.Options, _ *dist.Options) {
			o.EvidenceMax, o.Parallelism, o.QuarantineThreshold = -1, 1, math.MaxInt32
		}, ref: "evidence", check: sameInWorker},
	},
	"TestSchedEquivalenceAllApps": {
		{name: "workers2-lpt", workers: true, set: func(o *campaign.Options, d *dist.Options) {
			o.SchedPolicy, d.SchedPolicy = sched.LPT, sched.LPT
		}},
		{name: "lpt-stream", set: func(o *campaign.Options, _ *dist.Options) { o.SchedPolicy = sched.LPT }},
	},
	"TestPerfSamplerEquivalenceAllApps": {
		{name: "sampler", sampled: true},
		{name: "workers2-sampler", workers: true, sampled: true},
	},
	"TestCacheEquivalenceAllApps": {
		{name: "cache-off", set: cacheOff, view: sansExec, check: func(t *testing.T, c *matrixCase, _ campaign.Options, res *campaign.Result) {
			base, _ := c.get(t, "")
			on, off := base.Counts, res.Counts
			if off.ExecutionsSaved != 0 || on.Executed >= off.Executed || on.Executed+on.ExecutionsSaved != off.Executed {
				t.Fatalf("cache on executed+saved %d+%d; off %d+%d", on.Executed, on.ExecutionsSaved, off.Executed, off.ExecutionsSaved)
			}
		}},
		{name: "workers2-cache-off", workers: true, set: cacheOff, ref: "cache-off"},
	},
	"TestSeqEquivalenceAllApps": {
		{name: "seq-fixed", set: seq(stats.SeqFixed), view: paramTruth,
			check: func(t *testing.T, c *matrixCase, _ campaign.Options, fixed *campaign.Result) {
				sprt, _ := c.get(t, "cache-off") // SPRT is the default rule
				if sprt.Counts.Executed >= fixed.Counts.Executed || sprt.ConfirmationTrials >= fixed.ConfirmationTrials {
					t.Fatalf("executions, confirmation trials: sprt %d, %d; fixed %d, %d", sprt.Counts.Executed,
						sprt.ConfirmationTrials, fixed.Counts.Executed, fixed.ConfirmationTrials)
				}
				for _, r := range sprt.Reported {
					if r.StopReason == "" {
						t.Fatalf("sprt report for %s carries no stop reason", r.Param)
					}
				}
			}},
		{name: "seq-gsf", set: seq(stats.SeqGSF), ref: "seq-fixed", view: paramTruth},
		{name: "workers2-seq-gsf", workers: true, set: seq(stats.SeqGSF), ref: "seq-fixed", view: paramTruth},
	},
	"TestSelectionEquivalenceAllApps": {
		{name: "select-coverage", warm: true, set: selectOn, view: reportedView},
		{name: "select-all", warm: true, view: reportedView,
			check: func(t *testing.T, _ *matrixCase, _ campaign.Options, res *campaign.Result) {
				if len(res.DeselectedTests) != 0 {
					t.Fatalf("-select=all deselected %v", res.DeselectedTests)
				}
			}},
		{name: "workers2-select-coverage", workers: true, warm: true, set: selectOn, view: reportedView,
			check: func(t *testing.T, c *matrixCase, _ campaign.Options, res *campaign.Result) {
				if sel, _ := c.get(t, "select-coverage"); !reflect.DeepEqual(res.DeselectedTests, sel.DeselectedTests) {
					t.Fatalf("deselected %v, in process %v", res.DeselectedTests, sel.DeselectedTests)
				}
			}},
	},
}

func cacheOff(o *campaign.Options, _ *dist.Options) { o.DisableExecCache = true }
func evidence(o *campaign.Options, _ *dist.Options) { o.EvidenceMax = -1 }
func selectOn(o *campaign.Options, _ *dist.Options) { o.SelectCoverage = true }

// seq runs the stopping rule m with the cache off, so executions are
// trials and a saving is the rule's alone.
func seq(m stats.SeqMode) func(*campaign.Options, *dist.Options) {
	return func(o *campaign.Options, _ *dist.Options) { o.Seq, o.DisableExecCache = m, true }
}

func reversed(s []string) []string {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

// traced requires every report's evidence to carry a read trace that
// diverges somewhere.
func traced(t *testing.T, _ *matrixCase, _ campaign.Options, res *campaign.Result) {
	for _, r := range res.Reported {
		if r.Evidence == nil || len(r.Evidence.Reads) == 0 || r.Evidence.FirstDivergent < 0 {
			t.Fatalf("%s evidence has no divergent read trace: %+v", r.Param, r.Evidence)
		}
	}
}

// sameInWorker replays the campaign's work items through one ServeWorker
// session and requires each item's result to match the in-process one
// byte for byte, but for the coverage edges only a worker ships. One slot
// on both sides: both run the items one at a time in the recorded order,
// so what one item leaves the next (quarantine and the evidence budget,
// both off in this row) cannot differ between them.
func sameInWorker(t *testing.T, c *matrixCase, opts campaign.Options, local *campaign.Result) {
	rec := &recordingDistributor{}
	opts.Distributor = rec
	campaign.Run(c.app, opts)
	cfg := dist.ConfigFrom(opts)
	cfg.Parallel = 1
	s := startWorkerSession(t, c.app, cfg)
	for i := range rec.items {
		s.send(dist.Msg{Type: dist.MsgRun, Item: &rec.items[i]})
		got := s.result()
		if got.Coverage == nil {
			t.Errorf("item %d: the worker shipped no coverage edges", got.ID)
		}
		got.Coverage = nil
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(local.Items[got.ID])
		if string(a) != string(b) {
			t.Errorf("item %d (%s) differs:\n worker     %s\n in process %s", got.ID, got.Test, a, b)
		}
	}
	s.bye()
}
