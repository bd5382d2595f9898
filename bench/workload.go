package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/report"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/obs"
)

// coverageKey stands in for the CLI's flags digest: index entries written
// by the cold fill are trusted by the warm passes because both use it.
const coverageKey = "bench-pinned-policy"

// threeApps is what a pass of the threeapp workloads runs, in the order
// appOrder rotates: a CPU-heavy app (minimr codecs), a wait-bound one
// (miniyarn), and a tiny one.
var threeApps = []string{"minimr", "miniyarn", "miniflink"}

// pinned is the policy every workload runs under, chosen so the amount of
// work is a function of the seed and not of the scheduler: live quarantine
// and cross-item budget reallocation both depend on completion order.
func pinned(seed int64, parallelism int) campaign.Options {
	return campaign.Options{
		Parallelism:         parallelism,
		Seed:                seed,
		QuarantineThreshold: math.MaxInt32,
		SeqMargin:           -1,
		Stream:              true,
		SchedPolicy:         sched.LPT,
		Seq:                 stats.SeqSPRT,
	}
}

// runCtx is one workload process's state.
type runCtx struct {
	w    *workload
	seed int64  // the run's -seed: where in the workload's seed cycle it starts
	dir  string // state directory, removed at exit
	exe  string // this binary, re-executed as the dist worker
	rec  *recorder
	// apps is what one pass of a threeapp workload runs: threeApps in an
	// order -seed picks, or fewer in the smoke test.
	apps []string
	// warm state written by the cold fill.
	cacheDir, ledgerDir, profilePath string
}

// app resolves an application and, in a traced run, wraps its test bodies.
func (rc *runCtx) app(name string) (*harness.App, error) {
	app, err := resolveApp(name)
	if err != nil {
		return nil, err
	}
	return rc.rec.wrapApp(app), nil
}

// backend passes a cache tier through the timing decorator in a traced run.
func (rc *runCtx) backend(b memo.Backend) memo.Backend {
	if rc.rec == nil {
		return b
	}
	return &timedBackend{next: b, rec: rc.rec}
}

type workload struct {
	name string
	why  string
	// slots is the number of concurrent executions the workload keeps busy.
	slots int
	// minPasses timed passes run even when they overrun -seconds.
	minPasses int
	// seedCycle is the number of campaign seeds the workload's passes go
	// round: pass i runs on campaign seed 1 + (-seed + i) mod seedCycle.
	// The work in a campaign moves by a quarter with its seed (miniyarn
	// resolves 583 to 788 executions on seeds 1 to 12), so a run that took
	// its campaign seeds from -seed alone would do a quarter more or less
	// work than the next run; going round a fixed cycle, every run does the
	// same campaigns and -seed decides only which comes first. Each cycle is
	// as long as the passes a run makes on this host, or a divisor of it.
	seedCycle int
	// exactCounts marks a workload with no sleeps and one slot, whose
	// resolved-execution count is a pure function of the seed: there a
	// count that differs from the oracle or from an earlier pass is a
	// failed operation. Elsewhere timing-marginal trials move the count by
	// up to a tenth in some passes, and the difference is only reported.
	exactCounts bool
	// setupReps repeats the set-up so setup_s is a median, where one
	// set-up is cheap enough to repeat.
	setupReps int
	// setup is the fixed work before the first timed pass.
	setup func(rc *runCtx) error
	// pass runs the workload's campaigns once, on the given campaign seed.
	pass func(rc *runCtx, seed int64) ([]*campaign.Result, error)
}

// campaignSeed is the campaign seed of pass i; a negative i is a warm-up
// pass before the first timed one.
func (rc *runCtx) campaignSeed(i int) int64 {
	return 1 + floorMod(rc.seed+int64(i), int64(rc.w.seedCycle))
}

// floorMod is a mod n in [0, n), for a of either sign.
func floorMod(a, n int64) int64 { return (a%n + n) % n }

// appOrder is threeApps rotated by -seed: the same three campaigns in every
// run, a different one first.
func appOrder(seed int64) []string {
	r := floorMod(seed, int64(len(threeApps)))
	return append(append([]string(nil), threeApps[r:]...), threeApps[:r]...)
}

var workloads = []*workload{
	{
		name:      "yarn-wait",
		why:       "wait-bound: full miniyarn campaign in process on 2 slots; five sixths of the wall time is simtime sleeps inside test bodies, so virtual time must show here and engine-CPU work must not",
		slots:     2,
		minPasses: 3,
		seedCycle: 5,
		setupReps: 3,
		setup:     setupYarn,
		pass:      passYarn,
	},
	{
		name:        "flink-cpu",
		why:         "CPU-bound: full miniflink campaign at 1 slot, no sleeps; per-execution engine overhead (gid, agent, confkit, harness env, runner, testgen, stats, memo)",
		slots:       1,
		minPasses:   20,
		seedCycle:   20,
		exactCounts: true,
		setupReps:   3,
		setup:       setupFlink,
		pass:        passFlink,
	},
	{
		name:      "threeapp-dist2",
		why:       "write-heavy, out of process: minimr+miniyarn+miniflink through dist.Coordinator with 2 stdio workers, journal, evidence, every obs sink, ledger, coverage index and reports",
		slots:     2,
		minPasses: 2,
		seedCycle: 3,
		setupReps: 1,
		setup:     setupDist,
		pass:      passDist,
	},
	{
		name:      "threeapp-warm",
		why:       "read side: resubmits of the unchanged three-app campaign against a filled diskcache, coverage index, item store and sched profile, each reloaded from disk per pass",
		slots:     2,
		minPasses: 4,
		// One campaign seed: a resubmit only hits the cache on the seed the
		// cold fill ran on, and a cold fill per seed would be seven seconds
		// each. -seed still picks the order of the three apps.
		seedCycle: 1,
		setupReps: 1,
		setup:     setupWarm,
		pass:      passWarm,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- yarn-wait ------------------------------------------------------------------

// yarnSweeps serial pre-run sweeps of miniyarn's 13 tests make one set-up
// (≈0.12 s each, nearly all of it waiting, so it repeats to the
// millisecond).
const yarnSweeps = 5

// setupYarn doubles as the read-set sanity check: every test must read
// some parameter unmodified.
func setupYarn(rc *runCtx) error {
	app, err := resolveApp("miniyarn")
	if err != nil {
		return err
	}
	for sweep := 0; sweep < yarnSweeps; sweep++ {
		run := runner.New(app, runner.Options{BaseSeed: rc.campaignSeed(0)})
		reads := 0
		for i := range app.Tests {
			reads += len(run.PreRun(&app.Tests[i]).Report.Usage)
		}
		if reads == 0 {
			return fmt.Errorf("miniyarn: %d pre-runs read no parameter", len(app.Tests))
		}
	}
	return nil
}

func passYarn(rc *runCtx, seed int64) ([]*campaign.Result, error) {
	app, err := rc.app("miniyarn")
	if err != nil {
		return nil, err
	}
	return []*campaign.Result{rc.campaignRun(app, pinned(seed, 2))}, nil
}

// --- flink-cpu ---------------------------------------------------------------

// flinkWarmupPasses untimed passes run on the campaign seeds the cycle has
// just before the first timed one.
const flinkWarmupPasses = 6

func setupFlink(rc *runCtx) error {
	for i := 1; i <= flinkWarmupPasses; i++ {
		app, err := resolveApp("miniflink")
		if err != nil {
			return err
		}
		campaign.Run(app, pinned(rc.campaignSeed(-i), 1))
	}
	return nil
}

func passFlink(rc *runCtx, seed int64) ([]*campaign.Result, error) {
	app, err := rc.app("miniflink")
	if err != nil {
		return nil, err
	}
	return []*campaign.Result{rc.campaignRun(app, pinned(seed, 1))}, nil
}

// --- threeapp-dist2 -----------------------------------------------------------

// setupDist runs one untimed distributed miniyarn campaign with every sink
// on: worker spawn, handshake, journal and sink files are the fixed costs
// of going out of process, and miniyarn's waits make it seconds, not
// a fifth of one.
func setupDist(rc *runCtx) error {
	dir, err := os.MkdirTemp(rc.dir, "setup-")
	if err != nil {
		return err
	}
	_, err = distCampaigns(rc, dir, []string{"miniyarn"}, rc.campaignSeed(-1))
	return err
}

func passDist(rc *runCtx, seed int64) ([]*campaign.Result, error) {
	dir, err := os.MkdirTemp(rc.dir, "pass-")
	if err != nil {
		return nil, err
	}
	return distCampaigns(rc, dir, rc.apps, seed)
}

// distCampaigns mirrors what `zebraconf -mode run -workers 2` does with
// every sink on: one observer for the invocation, one coordinator per
// app, and ledger / coverage / report output after each campaign.
func distCampaigns(rc *runCtx, dir string, names []string, seed int64) (results []*campaign.Result, err error) {
	create := func(name string) *os.File {
		if err != nil {
			return nil
		}
		var f *os.File
		f, err = os.Create(filepath.Join(dir, name))
		return f
	}
	traceF, eventsF, perfF := create("trace.jsonl"), create("events.jsonl"), create("perf.jsonl")
	metricsF, reportF, jsonF := create("metrics.prom"), create("report.txt"), create("results.json")
	if err != nil {
		return nil, err
	}
	files := []*os.File{traceF, eventsF, perfF, metricsF, reportF, jsonF}
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	observer := obs.New()
	observer.Status = obs.NewStatus()
	observer.Events = obs.NewEventLog(eventsF)
	observer.Tracer = obs.NewTracer(traceF)
	observer.Sampler = obs.NewSampler(observer, obs.DefaultSamplePeriod, perfF, 0)
	observer.Sampler.Start()
	reportW := bufio.NewWriter(reportF)

	for _, name := range names {
		app, aerr := rc.app(name)
		if aerr != nil {
			return nil, aerr
		}
		opts := pinned(seed, 2)
		opts.EvidenceMax = 8 << 20
		opts.Obs = observer
		opts.CoverageKey = coverageKey
		cfg := dist.ConfigFrom(opts)
		cfg.TraceItems = true
		cfg.HeartbeatMS = 1000
		cfg.Parallel = 1
		ad := &distAdapter{rec: rc.rec, app: name, coord: dist.New(dist.Options{
			App:                 name,
			Workers:             2,
			WorkerCmd:           rc.workerCmd,
			Config:              cfg,
			CheckpointPath:      filepath.Join(dir, "journal-"+name+".jsonl"),
			ItemRetries:         dist.DefaultItemRetries,
			SchedPolicy:         sched.LPT,
			SpeculationFactor:   0,
			QuarantineThreshold: math.MaxInt32,
			Obs:                 observer,
			Stderr:              os.Stderr,
		})}
		opts.Distributor = ad
		start := time.Now()
		res := rc.campaignRun(app, opts)
		if ad.err != nil {
			return nil, fmt.Errorf("%s: distributed campaign: %w", name, ad.err)
		}
		res.WorkerStalls = ad.run.Stalls()
		results = append(results, res)

		report.Full(reportW, res)
		if err := saveCoverage(dir, app, opts, res); err != nil {
			return nil, err
		}
		rec := ledger.Summarize(res, seed, start, 2, map[string]string{"policy": coverageKey})
		rec.Perf = obs.SummarizePerf(observer, res.App, res.Elapsed.Seconds(), 2)
		if err := ledger.Append(dir, rec); err != nil {
			return nil, err
		}
	}
	observer.Sampler.Stop()
	if err := reportW.Flush(); err != nil {
		return nil, err
	}
	if err := report.JSON(jsonF, results); err != nil {
		return nil, err
	}
	if err := observer.Metrics.WritePrometheus(metricsF); err != nil {
		return nil, err
	}
	return results, nil
}

// workerCmd re-executes this binary as a stdio dist worker; a traced run
// tells it where to leave its span file.
func (rc *runCtx) workerCmd() *exec.Cmd {
	args := []string{"-worker"}
	if rc.rec != nil {
		args = append(args, "-trace-dir", rc.rec.dir)
	}
	cmd := exec.Command(rc.exe, args...)
	workers.add(cmd)
	return cmd
}

// saveCoverage freezes a campaign's read coverage into the index and item
// store a later run loads, as the CLI's -ledger path does.
func saveCoverage(dir string, app *harness.App, opts campaign.Options, res *campaign.Result) error {
	ix := coverage.Build(app.Name, opts.Seed, opts.CoverageKey, res.Coverage, app.Schema())
	st := &coverage.ItemStore{App: app.Name, Items: make(map[string]json.RawMessage)}
	for _, it := range res.Items {
		b, err := json.Marshal(it)
		if err != nil {
			return err
		}
		st.Items[it.Test] = b
	}
	if err := coverage.Save(dir, ix); err != nil {
		return err
	}
	return coverage.SaveItems(dir, st)
}

// --- threeapp-warm -------------------------------------------------------------

// setupWarm is the cold fill: one in-process pass over the three apps that
// writes everything the measured passes read back.
func setupWarm(rc *runCtx) error {
	rc.cacheDir = filepath.Join(rc.dir, "cache")
	rc.ledgerDir = filepath.Join(rc.dir, "ledger")
	rc.profilePath = filepath.Join(rc.dir, "profile.json")
	if err := os.Mkdir(rc.ledgerDir, 0o755); err != nil {
		return err
	}
	store, err := diskcache.Open(rc.cacheDir, 0, nil, nil)
	if err != nil {
		return err
	}
	profile := sched.NewProfile()
	seed := rc.campaignSeed(0)
	for _, name := range rc.apps {
		app, err := resolveApp(name)
		if err != nil {
			return err
		}
		opts := pinned(seed, 2)
		opts.CacheBackend = store
		opts.Profile = profile
		opts.CoverageKey = coverageKey
		start := time.Now()
		res := campaign.Run(app, opts)
		if err := saveCoverage(rc.ledgerDir, app, opts, res); err != nil {
			return err
		}
		rec := ledger.Summarize(res, seed, start, 0, map[string]string{"policy": coverageKey})
		if err := ledger.Append(rc.ledgerDir, rec); err != nil {
			return err
		}
	}
	return profile.Save(rc.profilePath)
}

func passWarm(rc *runCtx, seed int64) ([]*campaign.Result, error) {
	store, err := diskcache.Open(rc.cacheDir, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	profile, err := sched.LoadProfile(rc.profilePath)
	if err != nil {
		return nil, err
	}
	var results []*campaign.Result
	for _, name := range rc.apps {
		app, err := rc.app(name)
		if err != nil {
			return nil, err
		}
		ix, err := coverage.Load(rc.ledgerDir, name)
		if err != nil {
			return nil, err
		}
		if _, err := coverage.LoadItems(rc.ledgerDir, name); err != nil {
			return nil, err
		}
		opts := pinned(seed, 2)
		opts.CacheBackend = rc.backend(store)
		opts.Profile = profile
		opts.CoverageKey = coverageKey
		opts.CoverageIndex = ix
		opts.SelectCoverage = true
		results = append(results, rc.campaignRun(app, opts))
	}
	return results, nil
}

// resolveApp is apps.ByName plus the ladder's no-op application, so the
// same function serves as the dist worker's resolver.
func resolveApp(name string) (*harness.App, error) {
	if name == noopAppName {
		return noopApp(), nil
	}
	return apps.ByName(name)
}
