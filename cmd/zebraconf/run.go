package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/launch"
	"zebraconf/internal/core/report"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/obs"
)

// runLocal implements the modes that execute in this process: stats,
// suggest-deps, and the three that launch campaigns (run, explain, rerun).
func runLocal(spec launch.Spec) int {
	if *pprofRates > 0 {
		runtime.SetMutexProfileFraction(*pprofRates)
		runtime.SetBlockProfileRate(*pprofRates)
	}
	observer, flush, err := newObserver()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer flush()

	selected := apps.All()
	if spec.App != "all" {
		app, err := apps.ByName(spec.App)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []*harness.App{app}
	}

	switch *mode {
	case "suggest-deps":
		// The paper's future-work extension: extract dependency rules by
		// diffing read sets across a parameter's candidate values.
		for _, app := range selected {
			run := runner.New(app, runner.Options{BaseSeed: spec.Seed})
			targets := []string(spec.Params)
			if len(targets) == 0 {
				targets = app.Schema().Names()
			}
			testNames := []string(spec.Tests)
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
		return 0
	case "stats":
		report.Table1(os.Stdout, selected)
		fmt.Println()
		report.Table2(os.Stdout, selected)
		fmt.Println()
		report.Table4(os.Stdout, selected)
		return 0
	}
	return runCampaigns(selected, spec, observer)
}

// newObserver assembles observability only when asked for; a nil Observer
// keeps every instrumented path on its no-op branch. Output files are
// created eagerly so a bad path fails before the campaign, not after it
// has run for minutes. flush undoes everything in reverse order — the
// metrics file is written first, the perf sampler takes its final sample
// before its stream closes — and must run before the process exits.
func newObserver() (o *obs.Observer, flush func(), err error) {
	var undo []func()
	flush = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	if *traceOut == "" && *metricsOut == "" && !*progress && *httpAddr == "" && *eventsOut == "" && *ledgerDir == "" && *perfOut == "" {
		return nil, flush, nil
	}
	// create opens one output file, or nothing for an unset path or once an
	// earlier one has failed.
	create := func(path string) *os.File {
		if path == "" || err != nil {
			return nil
		}
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return nil
		}
		undo = append(undo, func() { f.Close() })
		return f
	}
	o = obs.New()
	// The status tracker costs a few counters per item either way; attach
	// it whenever any observability is on so /api answers and ledger stall
	// counts are available without a dedicated flag.
	o.Status = obs.NewStatus()
	o.GaugeSet(obs.MBuildInfo, 1, "version", buildVersion(), "go", runtime.Version())
	if f := create(*eventsOut); f != nil {
		o.Events = obs.NewEventLog(f)
	}
	if f := create(*traceOut); f != nil {
		o.Tracer = obs.NewTracer(f)
	}
	if *progress {
		o.Progress = obs.NewProgress(os.Stderr, 2*time.Second)
	}
	// The perf sampler runs whenever its series was asked for (-perf) or
	// could be served live (-http's /api/perf); the JSONL stream only with
	// -perf.
	var perfw io.Writer
	if f := create(*perfOut); f != nil {
		perfw = f
	}
	if err == nil && (*perfOut != "" || *httpAddr != "") {
		o.Sampler = obs.NewSampler(o, *perfPeriod, perfw, 0)
		o.Sampler.Start()
		undo = append(undo, o.Sampler.Stop)
	}
	if err == nil && *httpAddr != "" {
		var addr string
		var shutdown func()
		if addr, shutdown, err = obs.ServeDebug(*httpAddr, o); err == nil {
			undo = append(undo, shutdown)
			fmt.Fprintf(os.Stderr, "[zebraconf] debug server on http://%s (/api/campaign, /api/workers, /api/params, /metrics, /debug/vars, /debug/pprof)\n", addr)
		}
	}
	if f := create(*metricsOut); f != nil {
		undo = append(undo, func() {
			if err := o.Metrics.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		})
	}
	if err != nil {
		flush()
		return nil, nil, err
	}
	return o, flush, nil
}

// runCampaigns implements -mode run, explain and rerun: one
// launch.Campaign per selected application, then the reports. explain
// swaps the rendered report for the per-parameter forensics triage
// (evidence records attach to verdicts either way); rerun replays every
// test whose digested inputs are unchanged since the ledger's last run.
func runCampaigns(selected []*harness.App, spec launch.Spec, observer *obs.Observer) int {
	explain := *mode == "explain"
	if *mode == "rerun" && *ledgerDir == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode rerun needs -ledger (the directory holding the previous run's coverage index and item store)")
		return 2
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 2
	}
	env := launch.Env{
		Obs:            observer,
		Stderr:         os.Stderr,
		LedgerDir:      *ledgerDir,
		ProfilePath:    *profilePath,
		CheckpointPath: *checkpoint,
		ResumePath:     *resume,
	}
	if *diskCache != "" && spec.ExecCache {
		store, err := diskcache.Open(*diskCache, *cacheMax, nil, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zebraconf: opening disk cache:", err)
			return 1
		}
		env.Cache = store
	}
	if len(selected) > 1 && (*checkpoint != "" || *resume != "") {
		fmt.Fprintln(os.Stderr, "-checkpoint/-resume journal one campaign; use a single -app")
		return 2
	}
	if spec.Workers > 0 {
		// A worker's disk tier comes from its own flags: hand it this
		// process's, so it opens the same directory itself.
		cmd, err := workerCmd(*diskCache, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		env.WorkerCmd = cmd
	}

	exit := 0
	// A typo in -tests must not silently shrink the campaign: warn per
	// app, and when NO requested test exists anywhere, fail the run.
	anyTestResolved := len(spec.Tests) == 0
	var results []*campaign.Result
	for _, app := range selected {
		if !explain {
			fmt.Printf("=== campaign: %s (%d tests, %d parameters) ===\n",
				app.Name, len(app.Tests), app.Schema().Len())
		}
		var unknown []string
		for _, name := range spec.Tests {
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
		if *mode == "rerun" {
			env.Rerun = func(p *campaign.RerunPlan) { printRerunPlan(app.Name, *ledgerDir, p) }
		}
		out, err := launch.Campaign(app, spec, env)
		if err != nil {
			// No result: no report and no ledger record.
			fmt.Fprintln(os.Stderr, "zebraconf:", err)
			return 1
		}
		if explain {
			if err := report.Explain(os.Stdout, out.Result, *onlyParam); err != nil {
				fmt.Fprintln(os.Stderr, "zebraconf:", err)
				exit = 2
			}
		} else {
			report.Full(os.Stdout, out.Result)
			fmt.Println()
		}
		if out.SaveErr != nil {
			fmt.Fprintln(os.Stderr, "zebraconf:", out.SaveErr)
			exit = 1
		}
		if out.Record != nil {
			fmt.Fprintf(os.Stderr, "[zebraconf] ledger: recorded run %s (%s) in %s\n",
				out.Record.RunID, app.Name, *ledgerDir)
		}
		results = append(results, out.Result)
	}
	if !anyTestResolved {
		fmt.Fprintln(os.Stderr, "zebraconf: error: none of the requested -tests exist in any selected application")
		exit = 2
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
			return 1
		}
		defer f.Close()
		if err := report.JSON(f, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return exit
}

// printRerunPlan reports a rerun's partition before it executes; a nil
// plan means the ledger directory was cold.
func printRerunPlan(app, dir string, p *campaign.RerunPlan) {
	if p == nil {
		fmt.Fprintf(os.Stderr, "[zebraconf] rerun %s: no previous coverage index in %s; running the full campaign\n", app, dir)
		return
	}
	fmt.Printf("[zebraconf] rerun %s: %d changed, %d replayed\n", app, len(p.Changed), len(p.Replayed))
	for _, t := range p.Changed {
		why := strings.Join(p.Reasons[t], ", ")
		if why == "" {
			why = "new test or environment change"
		}
		fmt.Printf("[zebraconf] rerun changed %s (%s)\n", t, why)
	}
}
