// Command zebraconf runs the ZebraConf pipeline over the mini
// applications: pre-run statistics, full heterogeneous campaigns, and the
// paper's tables.
//
// Usage:
//
//	zebraconf -mode stats                      # Tables 1, 2, 4
//	zebraconf -mode run -app minihdfs          # full campaign on one app
//	zebraconf -mode run -app all -json out.json
//	zebraconf -mode run -app miniyarn -params yarn.http.policy -tests TestTimelineQuery
//	zebraconf -mode run -app minihdfs -trace /tmp/t.jsonl -metrics /tmp/m.prom -progress
//	zebraconf -mode run -app minihdfs -workers 4 -seed 7 -checkpoint /tmp/c.jsonl
//	zebraconf -mode run -app minihdfs -workers 4 -seed 7 -resume /tmp/c.jsonl
//	zebraconf -mode run -app minihdfs -http :6060 -events /tmp/e.jsonl -ledger /tmp/runs
//	zebraconf -mode watch -http-addr :6060            # live terminal dashboard
//	zebraconf -mode diff -ledger /tmp/runs -app minihdfs
//	zebraconf -mode run -app minihdfs -perf /tmp/p.jsonl -trace /tmp/t.jsonl -events /tmp/e.jsonl
//	zebraconf -mode profile -trace /tmp/t.jsonl -events /tmp/e.jsonl -perf /tmp/p.jsonl
//	zebraconf -mode trends -ledger /tmp/runs -app minihdfs
//	zebraconf -mode serve -listen :8080 -worker-listen :9090 -token s3cret -state /var/lib/zebraconf
//	zebraconf -worker -connect host:9090 -token s3cret          # TCP worker joins the service
//	zebraconf -mode submit -server http://host:8080 -token s3cret -app minihdfs -workers 2
//	zebraconf -mode watch -server http://host:8080 -token s3cret -campaign c0001
//	zebraconf -mode cancel -server http://host:8080 -token s3cret -campaign c0001
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/flight"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/report"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/server"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/obs"
)

func main() {
	var (
		mode       = flag.String("mode", "run", "stats | run | rerun | explain | watch | diff | profile | trends | suggest-deps | serve | submit | cancel")
		appName    = flag.String("app", "all", "application name or 'all'")
		params     = flag.String("params", "", "comma-separated parameter subset")
		tests      = flag.String("tests", "", "comma-separated test subset")
		parallel   = flag.Int("parallel", 0, "concurrent unit tests (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 0, "base seed mixed into every trial seed (reproducible campaigns)")
		jsonOut    = flag.String("json", "", "write campaign results as JSON to this file")
		noPool     = flag.Bool("no-pool", false, "disable pooled testing (ablation)")
		execCache  = flag.Bool("exec-cache", true, "memoize identical unit-test executions (canonically-seeded homogeneous arms and pooled runs); -exec-cache=false re-runs everything (ablation)")
		noGate     = flag.Bool("no-gate", false, "disable first-trial gating (ablation)")
		threadOnly = flag.Bool("thread-only", false, "use thread-based read attribution (the paper's failed attempt #3)")
		maxPool    = flag.Int("max-pool", 0, "max parameters per pool (0 = unbounded)")
		traceOut   = flag.String("trace", "", "write JSONL trace spans to this file")
		metricsOut = flag.String("metrics", "", "write Prometheus text metrics to this file at exit")
		progress   = flag.Bool("progress", false, "render live campaign progress to stderr")
		httpAddr   = flag.String("http", "", "serve /metrics, expvar, and pprof on this address (e.g. :6060)")

		// Verdict forensics (internal/core/forensics).
		evidenceMax = flag.Int64("evidence-max", forensics.DefaultBudget, "campaign-wide evidence byte budget (per worker with -workers): records degrade to verdict-only past it; 0 disables forensic capture, negative is unlimited")
		onlyParam   = flag.String("param", "", "with -mode explain: report only this parameter (error if it was not reported)")

		// Sequential confirmation (internal/core/stats).
		seqFlag   = flag.String("seq", "sprt", "sequential confirmation mode: sprt (SPRT convict/futility boundaries) | gsf (group-sequential Fisher, alpha-spending) | fixed (full-round ablation)")
		seqMargin = flag.Float64("seq-margin", runner.DefaultSeqMargin, "budget reallocation: parameters ending within this factor x significance receive extension rounds funded by early stops; 0 disables")

		// Adaptive scheduling (internal/core/sched).
		schedFlag   = flag.String("sched", "lpt", "phase-2 dispatch order: lpt (longest-predicted first) | fifo (ablation)")
		stream      = flag.Bool("stream", true, "stream work items into phase 2 as each pre-run finishes; -stream=false holds every work item until the last pre-run finishes (ablation)")
		speculate   = flag.Float64("speculate", 1.5, "with -workers: re-issue an item held longer than this factor x its predicted duration once the queue drains; 0 disables (ablation)")
		profilePath = flag.String("profile", "", "duration profile JSON: read for predictions if present, rewritten with this campaign's timings at exit")
		quarantine  = flag.Int("quarantine", 3, "distinct confirming tests before a parameter is live-quarantined mid-campaign (§4 frequent-failer rule); 0 disables the pruning (ablation)")

		// Coverage-driven selection & incremental reruns (internal/core/coverage).
		selectFlag = flag.String("select", "coverage", "phase-2 test selection: coverage (skip tests whose indexed read set is disjoint from the campaign's params; needs a warm -ledger index) | all (dispatch to every test; ablation)")
		overrides  = flag.String("override", "", "comma-separated param=value schema default overrides (simulates a changed seeded default; drives -mode rerun invalidation)")

		// Distributed execution (internal/core/dist).
		workers        = flag.Int("workers", 0, "shard the campaign across N worker subprocesses (0 = in-process)")
		workerMode     = flag.Bool("worker", false, "run as a campaign worker speaking NDJSON on stdio (spawned by -workers; not for interactive use)")
		workerParallel = flag.Int("worker-parallel", 0, "concurrent work items inside each worker subprocess (0 = split the -parallel budget across workers)")
		checkpoint     = flag.String("checkpoint", "", "journal completed work items to this JSONL file (with -workers)")
		resume         = flag.String("resume", "", "skip work items already completed in this checkpoint journal (with -workers)")
		itemTimeout    = flag.Duration("item-timeout", dist.DefaultItemTimeout, "per-work-item deadline before its worker is killed")
		itemRetries    = flag.Int("item-retries", dist.DefaultItemRetries, "crashed/timed-out work item retries before quarantine")

		// Live introspection & run ledger (internal/obs, internal/core/ledger).
		eventsOut  = flag.String("events", "", "write the JSONL campaign event log (flight recorder) to this file")
		perfOut    = flag.String("perf", "", "write the JSONL perf sample series (periodic runtime + metrics snapshots) to this file; also analyzed offline by -mode profile")
		perfPeriod = flag.Duration("perf-period", obs.DefaultSamplePeriod, "perf sampler snapshot period (with -perf or -http)")
		ledgerDir  = flag.String("ledger", "", "append one run-summary record per campaign to <dir>/ledger.jsonl (compared by -mode diff)")
		pprofRates = flag.Int("pprof-rates", 0, "sample mutex contention and blocking at rate N for the -http pprof endpoints (0 = off)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "worker heartbeat period with -workers; 0 disables heartbeats and stall detection")
		httpTarget = flag.String("http-addr", "", "with -mode watch: the -http address of the running campaign to poll")
		watchEvery = flag.Duration("watch-interval", time.Second, "with -mode watch: poll interval")
		diffRuns   = flag.String("diff-runs", "", "with -mode diff: two comma-separated run IDs (or unique prefixes) to compare instead of the app's last two")

		// Cross-run regression detection (internal/core/flight).
		trendRuns      = flag.Int("trend-runs", flight.DefaultTrendRuns, "with -mode trends: trailing runs to compare (the newest against up to N-1 predecessors)")
		trendThreshold = flag.Float64("trend-threshold", flight.DefaultTrendThreshold, "with -mode trends: relative drift past which a metric is flagged (strictly greater than)")

		// Campaign service (internal/core/server) and the persistent
		// execution cache (internal/core/diskcache).
		serverURL    = flag.String("server", "", "campaign service URL for -mode submit|watch|cancel (e.g. http://host:8080)")
		campaignID   = flag.String("campaign", "", "campaign ID for -mode watch|cancel with -server")
		tokenFlag    = flag.String("token", "", "shared bearer token: -mode serve requires it from clients and workers; submit/watch/cancel and -worker -connect send it")
		listenAddr   = flag.String("listen", ":8080", "with -mode serve: REST API listen address")
		workerListen = flag.String("worker-listen", ":9090", "with -mode serve: TCP worker gateway listen address")
		stateDir     = flag.String("state", "zebraconf-state", "with -mode serve: persistent state directory (disk cache, run ledger, duration profile, per-campaign journals)")
		connectAddr  = flag.String("connect", "", "with -worker: connect to a campaign service's worker gateway at host:port instead of speaking NDJSON on stdio")
		diskCache    = flag.String("disk-cache", "", "content-addressed disk execution cache directory, shared across runs (-mode serve always uses <state>/cache)")
		cacheMax     = flag.Int64("cache-max-bytes", 0, "disk cache size cap in bytes before LRU eviction (0 = 256 MiB)")
		waitDone     = flag.Bool("wait", false, "with -mode submit: block until the campaign reaches a terminal state, exit nonzero unless done")
	)
	flag.Parse()

	// Deferred exit so error paths discovered mid-run (e.g. every
	// requested test unknown) still flush the metrics/trace files and
	// shut the debug server down: registered first, this defer runs
	// last, after all the cleanup defers below.
	exitCode := 0
	defer func() {
		if exitCode != 0 {
			os.Exit(exitCode)
		}
	}()

	if *workerMode {
		if *connectAddr != "" {
			// TCP worker: dial the service's gateway and serve campaigns
			// over the same NDJSON protocol, reconnecting between them.
			err := dist.ConnectWorker(*connectAddr, dist.ConnectOptions{
				Token: *tokenFlag,
				Env:   dist.WorkerEnv{DiskCacheDir: *diskCache, DiskCacheMaxBytes: *cacheMax},
				Logw:  os.Stderr,
			}, apps.ByName)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zebraconf worker:", err)
				os.Exit(1)
			}
			return
		}
		out := bufio.NewWriter(os.Stdout)
		defer out.Flush()
		env := dist.WorkerEnv{DiskCacheDir: *diskCache, DiskCacheMaxBytes: *cacheMax}
		if err := dist.ServeWorkerEnv(os.Stdin, out, apps.ByName, env); err != nil {
			fmt.Fprintln(os.Stderr, "zebraconf worker:", err)
			os.Exit(1)
		}
		return
	}

	// watch, diff, profile, and trends are pure introspection modes:
	// they read a running campaign's status API, a ledger directory, or
	// a finished run's artifacts, and never execute anything, so they
	// return before the observer machinery assembles.
	switch *mode {
	case "watch":
		if *serverURL != "" {
			exitCode = runWatchServer(*serverURL, *tokenFlag, *campaignID, *watchEvery)
		} else {
			exitCode = runWatch(*httpTarget, *watchEvery)
		}
		return
	case "diff":
		exitCode = runDiff(*ledgerDir, *appName, *diffRuns)
		return
	case "profile":
		exitCode = runProfile(*traceOut, *eventsOut, *perfOut)
		return
	case "trends":
		exitCode = runTrends(*ledgerDir, *appName, *trendRuns, *trendThreshold)
		return
	case "serve":
		exitCode = runServe(*listenAddr, *workerListen, *tokenFlag, *stateDir, *cacheMax)
		return
	case "submit":
		req := server.SubmitRequest{
			App:                *appName,
			Params:             splitList(*params),
			Tests:              splitList(*tests),
			Seed:               *seed,
			Workers:            *workers,
			Parallel:           *parallel,
			WorkerParallel:     *workerParallel,
			MaxPool:            *maxPool,
			NoPool:             *noPool,
			NoGate:             *noGate,
			ExecCache:          execCache,
			Sched:              *schedFlag,
			Seq:                *seqFlag,
			SeqMargin:          seqMargin,
			Stream:             stream,
			Speculate:          speculate,
			Quarantine:         quarantine,
			EvidenceMax:        evidenceMax,
			ItemTimeoutSeconds: itemTimeout.Seconds(),
			ItemRetries:        itemRetries,
			HeartbeatMS:        int(heartbeat.Milliseconds()),
		}
		exitCode = runSubmit(*serverURL, *tokenFlag, req, *waitDone, *watchEvery)
		return
	case "cancel":
		exitCode = runCancelCampaign(*serverURL, *tokenFlag, *campaignID)
		return
	}

	if *pprofRates > 0 {
		runtime.SetMutexProfileFraction(*pprofRates)
		runtime.SetBlockProfileRate(*pprofRates)
	}

	// Observability is assembled only when asked for; a nil Observer
	// keeps every instrumented path on its no-op branch.
	var observer *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *progress || *httpAddr != "" || *eventsOut != "" || *ledgerDir != "" || *perfOut != "" {
		observer = obs.New()
		// The status tracker costs a few counters per item either way;
		// attach it whenever any observability is on so /api answers and
		// ledger stall counts are available without a dedicated flag.
		observer.Status = obs.NewStatus()
		observer.GaugeSet(obs.MBuildInfo, 1, "version", buildVersion(), "go", runtime.Version())
		if *eventsOut != "" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			observer.Events = obs.NewEventLog(f)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			observer.Tracer = obs.NewTracer(f)
		}
		if *progress {
			observer.Progress = obs.NewProgress(os.Stderr, 2*time.Second)
		}
		// The perf sampler runs whenever its series was asked for (-perf)
		// or could be served live (-http's /api/perf); the JSONL stream
		// only with -perf. Stop is deferred after the file's Close defer,
		// so the final sample lands before the stream closes.
		if *perfOut != "" || *httpAddr != "" {
			var pw *os.File
			if *perfOut != "" {
				f, err := os.Create(*perfOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				defer f.Close()
				pw = f
			}
			var w io.Writer
			if pw != nil {
				w = pw
			}
			observer.Sampler = obs.NewSampler(observer, *perfPeriod, w, 0)
			observer.Sampler.Start()
			defer observer.Sampler.Stop()
		}
		if *httpAddr != "" {
			addr, shutdown, err := obs.ServeDebug(*httpAddr, observer)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer shutdown()
			fmt.Fprintf(os.Stderr, "[zebraconf] debug server on http://%s (/api/campaign, /api/workers, /api/params, /metrics, /debug/vars, /debug/pprof)\n", addr)
		}
		if *metricsOut != "" {
			// Create eagerly so a bad path fails before the campaign,
			// not after it has run for minutes.
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer func() {
				if err := observer.Metrics.WritePrometheus(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
				}
				f.Close()
			}()
		}
	}

	var selected []*harness.App
	if *appName == "all" {
		selected = apps.All()
	} else {
		app, err := apps.ByName(*appName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		selected = []*harness.App{app}
	}

	switch *mode {
	case "suggest-deps":
		// The paper's future-work extension: extract dependency rules by
		// diffing read sets across a parameter's candidate values.
		for _, app := range selected {
			run := runner.New(app, runner.Options{BaseSeed: *seed})
			targets := splitList(*params)
			if len(targets) == 0 {
				targets = app.Schema().Names()
			}
			testNames := splitList(*tests)
			if len(testNames) == 0 {
				testNames = app.TestNames()
			}
			for _, name := range testNames {
				test, err := app.Test(name)
				if err != nil {
					continue
				}
				for _, s := range run.SuggestDependencies(test, app.Schema(), targets) {
					fmt.Printf("%s/%s: when %s=%s the test also reads %s\n",
						app.Name, s.Test, s.Param, s.When, strings.Join(s.ThenParams, ", "))
				}
			}
		}
	case "stats":
		report.Table1(os.Stdout, selected)
		fmt.Println()
		report.Table2(os.Stdout, selected)
		fmt.Println()
		report.Table4(os.Stdout, selected)
	case "run", "explain", "rerun":
		// explain shares run's entire execution path — same campaign, same
		// flags — and swaps the rendered report for the per-parameter
		// forensics triage (evidence records attach to verdicts either way;
		// explain just reads them back out). rerun shares it too, but first
		// partitions the suite against the previous ledger's coverage index
		// and replays every test whose digested inputs are unchanged.
		explain := *mode == "explain"
		rerunMode := *mode == "rerun"
		if rerunMode && *ledgerDir == "" {
			fmt.Fprintln(os.Stderr, "zebraconf: -mode rerun needs -ledger (the directory holding the previous run's coverage index and item store)")
			os.Exit(2)
		}
		if *selectFlag != "coverage" && *selectFlag != "all" {
			fmt.Fprintf(os.Stderr, "zebraconf: bad -select %q (want coverage or all)\n", *selectFlag)
			os.Exit(2)
		}
		overrideMap := make(map[string]string)
		if *overrides != "" {
			for _, kv := range strings.Split(*overrides, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || strings.TrimSpace(k) == "" {
					fmt.Fprintf(os.Stderr, "zebraconf: bad -override entry %q (want param=value)\n", kv)
					os.Exit(2)
				}
				overrideMap[strings.TrimSpace(k)] = v
			}
		}
		policy, err := sched.ParsePolicy(*schedFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		seqMode, err := stats.ParseSeqMode(*seqFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// The duration profile is read for predictions (LPT ordering,
		// speculation deadlines) and updated in place with this campaign's
		// timings, so every run sharpens the next one's schedule.
		profile, err := sched.LoadProfile(*profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Live quarantine prunes based on completion order, so -quarantine 0
		// (a threshold no campaign reaches) is the knob that makes two
		// schedules byte-comparable.
		quarThreshold := *quarantine
		if quarThreshold <= 0 {
			quarThreshold = math.MaxInt32
		}
		opts := campaign.Options{
			Parallelism:         *parallel,
			MaxPool:             *maxPool,
			DisablePooling:      *noPool,
			DisableGate:         *noGate,
			DisableExecCache:    !*execCache,
			Params:              splitList(*params),
			Tests:               splitList(*tests),
			Seed:                *seed,
			Seq:                 seqMode,
			SeqMargin:           *seqMargin,
			SchedPolicy:         policy,
			Stream:              *stream,
			Profile:             profile,
			QuarantineThreshold: quarThreshold,
			EvidenceMax:         *evidenceMax,
			SelectCoverage:      *selectFlag == "coverage",
			Overrides:           overrideMap,
			Obs:                 observer,
		}
		if *threadOnly {
			opts.Strategy = agent.StrategyThreadOnly
		}
		// The persistent disk cache backs the in-process memo cache and,
		// with -workers, is served to workers through the coordinator's
		// shared tier and opened locally by each subprocess worker.
		var diskStore *diskcache.Store
		if *diskCache != "" && *execCache {
			store, err := diskcache.Open(*diskCache, *cacheMax, nil, observer)
			if err != nil {
				fmt.Fprintln(os.Stderr, "zebraconf: opening disk cache:", err)
				os.Exit(1)
			}
			diskStore = store
			opts.CacheBackend = store
		}
		var workerExe string
		if *workers > 0 {
			if len(selected) > 1 && (*checkpoint != "" || *resume != "") {
				fmt.Fprintln(os.Stderr, "-checkpoint/-resume journal one campaign; use a single -app")
				os.Exit(2)
			}
			exe, err := os.Executable()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			workerExe = exe
		}
		// A typo in -tests must not silently shrink the campaign: warn per
		// app, and when NO requested test exists anywhere, fail the run.
		requestedTests := splitList(*tests)
		anyTestResolved := len(requestedTests) == 0
		// The ledger's flags digest covers only execution-affecting flags,
		// so two runs differing purely in instrumentation (-events, -trace,
		// -http, -ledger itself…) diff clean.
		execFlags := map[string]string{
			"params":          *params,
			"tests":           *tests,
			"parallel":        fmt.Sprint(*parallel),
			"seed":            fmt.Sprint(*seed),
			"no-pool":         fmt.Sprint(*noPool),
			"exec-cache":      fmt.Sprint(*execCache),
			"no-gate":         fmt.Sprint(*noGate),
			"thread-only":     fmt.Sprint(*threadOnly),
			"max-pool":        fmt.Sprint(*maxPool),
			"sched":           *schedFlag,
			"seq":             *seqFlag,
			"seq-margin":      fmt.Sprint(*seqMargin),
			"stream":          fmt.Sprint(*stream),
			"speculate":       fmt.Sprint(*speculate),
			"quarantine":      fmt.Sprint(*quarantine),
			"evidence-max":    fmt.Sprint(*evidenceMax),
			"workers":         fmt.Sprint(*workers),
			"worker-parallel": fmt.Sprint(*workerParallel),
			"item-timeout":    itemTimeout.String(),
			"item-retries":    fmt.Sprint(*itemRetries),
			"select":          *selectFlag,
		}
		// The coverage environment key is that same digest: an index entry
		// is only replayed or trusted for selection when the current run's
		// execution-affecting flags match the run that recorded it.
		// -override is deliberately NOT part of it — an override changes
		// the per-parameter schema digests instead, so rerun invalidation
		// names the drifted parameter rather than the whole environment.
		opts.CoverageKey = ledger.DigestFlags(execFlags)
		var results []*campaign.Result
		for _, app := range selected {
			if !explain {
				fmt.Printf("=== campaign: %s (%d tests, %d parameters) ===\n",
					app.Name, len(app.Tests), app.Schema().Len())
			}
			if len(requestedTests) > 0 {
				var unknown []string
				for _, name := range requestedTests {
					if _, err := app.Test(name); err != nil {
						unknown = append(unknown, name)
					} else {
						anyTestResolved = true
					}
				}
				if len(unknown) > 0 {
					fmt.Fprintf(os.Stderr, "zebraconf: warning: %s: unknown test(s) in -tests: %s\n",
						app.Name, strings.Join(unknown, ", "))
				}
			}
			appOpts := opts
			// slots is the run's parallel execution budget, the
			// denominator of the perf summary's utilization.
			slots := *parallel
			if slots <= 0 {
				slots = campaign.DefaultParallelism()
			}
			var coord *dist.Coordinator
			if *workers > 0 {
				cfg := dist.ConfigFrom(opts)
				// With the coordinator tracing, workers trace each item
				// too; the coordinator stitches their fragments under its
				// own item spans so the file renders as one tree.
				cfg.TraceItems = *traceOut != ""
				cfg.HeartbeatMS = int(heartbeat.Milliseconds())
				if diskStore != nil {
					cfg.DiskCacheDir = *diskCache
					cfg.DiskCacheMaxBytes = *cacheMax
				}
				cfg.Parallel = *workerParallel
				if cfg.Parallel <= 0 {
					// Split the in-process concurrency budget across the
					// workers: total load stays the same no matter how
					// many workers shard the campaign.
					cfg.Parallel = (slots + *workers - 1) / *workers
				}
				slots = *workers * cfg.Parallel
				distOpts := dist.Options{
					App:                 app.Name,
					Workers:             *workers,
					WorkerCmd:           func() *exec.Cmd { return exec.Command(workerExe, "-worker") },
					Config:              cfg,
					CheckpointPath:      *checkpoint,
					ResumePath:          *resume,
					ItemTimeout:         *itemTimeout,
					ItemRetries:         *itemRetries,
					SchedPolicy:         policy,
					SpeculationFactor:   *speculate,
					Profile:             profile,
					QuarantineThreshold: quarThreshold,
					Obs:                 observer,
					Stderr:              os.Stderr,
				}
				if diskStore != nil {
					distOpts.SharedBackend = diskStore
				}
				coord = dist.New(distOpts)
				appOpts.Distributor = coord
			}
			start := time.Now()
			// A warm ledger directory carries the previous run's coverage
			// index (read edges + digests) and item store (replayable
			// per-test results); both are optional — a cold directory just
			// means a full run that seeds them.
			var prevIx *coverage.Index
			var prevItems *coverage.ItemStore
			if *ledgerDir != "" {
				var err error
				if prevIx, err = coverage.Load(*ledgerDir, app.Name); err != nil {
					fmt.Fprintln(os.Stderr, "zebraconf: reading coverage index:", err)
					os.Exit(1)
				}
				if prevItems, err = coverage.LoadItems(*ledgerDir, app.Name); err != nil {
					fmt.Fprintln(os.Stderr, "zebraconf: reading coverage item store:", err)
					os.Exit(1)
				}
				appOpts.CoverageIndex = prevIx
			}
			var res *campaign.Result
			var plan *campaign.RerunPlan
			if rerunMode {
				if prevIx == nil || prevItems == nil {
					fmt.Fprintf(os.Stderr, "[zebraconf] rerun %s: no previous coverage index in %s; running the full campaign\n",
						app.Name, *ledgerDir)
					res = campaign.Run(app, appOpts)
				} else {
					p := campaign.PlanRerun(app, appOpts, prevIx, prevItems)
					plan = &p
					fmt.Printf("[zebraconf] rerun %s: %d changed, %d replayed\n",
						app.Name, len(p.Changed), len(p.Replayed))
					for _, t := range p.Changed {
						why := strings.Join(p.Reasons[t], ", ")
						if why == "" {
							why = "new test or environment change"
						}
						fmt.Printf("[zebraconf] rerun changed %s (%s)\n", t, why)
					}
					res = campaign.Rerun(app, appOpts, p, prevItems)
				}
			} else {
				res = campaign.Run(app, appOpts)
			}
			if coord != nil {
				// The campaign cannot produce a result without the
				// distributed items, so a coordinator failure is fatal:
				// no report, no ledger record.
				if err := coord.Err(); err != nil {
					fmt.Fprintln(os.Stderr, "distributed campaign failed:", err)
					os.Exit(1)
				}
				if run := coord.Run(); run != nil {
					res.WorkerStalls = run.Stalls()
				}
			}
			if explain {
				if err := report.Explain(os.Stdout, res, *onlyParam); err != nil {
					fmt.Fprintln(os.Stderr, "zebraconf:", err)
					exitCode = 2
				}
			} else {
				report.Full(os.Stdout, res)
				fmt.Println()
			}
			if *ledgerDir != "" {
				saveCoverage(*ledgerDir, app, appOpts, res, plan, prevIx, prevItems, &exitCode)
				rec := ledgerRecord(res, *seed, start, *workers, execFlags)
				rec.Perf = obs.SummarizePerf(observer, res.App, res.Elapsed.Seconds(), slots)
				if plan != nil {
					rec.ChangedTests = len(plan.Changed)
					rec.ReplayedTests = len(plan.Replayed)
				}
				if err := ledger.Append(*ledgerDir, rec); err != nil {
					fmt.Fprintln(os.Stderr, "zebraconf: writing run ledger:", err)
					exitCode = 1
				} else {
					fmt.Fprintf(os.Stderr, "[zebraconf] ledger: recorded run %s (%s) in %s\n",
						rec.RunID, res.App, *ledgerDir)
				}
			}
			results = append(results, res)
		}
		if *profilePath != "" {
			if err := profile.Save(*profilePath); err != nil {
				fmt.Fprintln(os.Stderr, "zebraconf: writing duration profile:", err)
				exitCode = 1
			}
		}
		if !anyTestResolved {
			fmt.Fprintln(os.Stderr, "zebraconf: error: none of the requested -tests exist in any selected application")
			exitCode = 2
		}
		if len(results) > 1 && !explain {
			s := report.Summarize(results)
			uniq, trueOnes := report.UniqueParams(results)
			fmt.Printf("=== overall: %d reports across apps (%d distinct parameters, %d true) — paper reports 57 -> 41 ===\n",
				s.Reported, uniq, trueOnes)
			var schemas []*confkit.Registry
			for _, app := range selected {
				schemas = append(schemas, app.Schema())
			}
			if missed := report.OverallMissed(results, schemas); len(missed) > 0 {
				fmt.Printf("=== overall missed (not found through any application): %s ===\n",
					strings.Join(missed, ", "))
			} else {
				fmt.Println("=== every seeded-unsafe parameter was found through at least one application ===")
			}
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := report.JSON(f, results); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
