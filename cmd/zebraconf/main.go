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
//	zebraconf -mode run -app minihdfs -trace /tmp/t.jsonl -metrics /tmp/m.prom
//	zebraconf -mode run -app minihdfs -workers 4 -seed 7 -checkpoint /tmp/c.jsonl
//	zebraconf -mode run -app minihdfs -workers 4 -seed 7 -resume /tmp/c.jsonl
//	zebraconf -mode run -app minihdfs -events /tmp/e.jsonl -ledger /tmp/runs
//	zebraconf -mode diff -ledger /tmp/runs -app minihdfs
//	zebraconf -mode run -app minihdfs -perf /tmp/p.jsonl -trace /tmp/t.jsonl -events /tmp/e.jsonl
//	zebraconf -mode profile -trace /tmp/t.jsonl -events /tmp/e.jsonl -perf /tmp/p.jsonl
//	zebraconf -mode trends -ledger /tmp/runs -app minihdfs
//	zebraconf -mode run -app minihdfs -workers 2 -disk-cache /var/cache/zebraconf -ledger /var/lib/zebraconf
//
// Every observability sink is a file read after the run; nothing is
// served live. For CPU and heap profiles, profile a root benchmark
// campaign from the module root:
//
//	go test -run '^$' -bench BenchmarkTable3CampaignMinihdfs -benchtime 1x -cpuprofile cpu.out
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/flight"
	"zebraconf/internal/core/launch"
	"zebraconf/internal/obs"
)

// Every flag that is not campaign policy (that is launch.Spec, bound in
// main): the mode, where outputs go, and the worker and disk-cache plumbing.
var (
	mode      = flag.String("mode", "run", "stats | run | rerun | explain | diff | profile | trends | suggest-deps")
	jsonOut   = flag.String("json", "", "write campaign results as JSON to this file")
	onlyParam = flag.String("param", "", "with -mode explain: report only this parameter (error if it was not reported)")

	// Observability sinks (internal/obs), the run ledger and the profile.
	traceOut    = flag.String("trace", "", "write JSONL trace spans to this file")
	metricsOut  = flag.String("metrics", "", "write Prometheus text metrics to this file at exit")
	eventsOut   = flag.String("events", "", "write the JSONL campaign event log (flight recorder) to this file")
	perfOut     = flag.String("perf", "", "write the JSONL perf sample series (periodic runtime + metrics snapshots) to this file; also analyzed offline by -mode profile")
	perfPeriod  = flag.Duration("perf-period", obs.DefaultSamplePeriod, "perf sampler snapshot period (with -perf)")
	ledgerDir   = flag.String("ledger", "", "append one run-summary record per campaign to <dir>/ledger.jsonl (compared by -mode diff)")
	profilePath = flag.String("profile", "", "duration profile JSON: read for predictions if present, rewritten with this campaign's timings at exit")

	// Introspection modes.
	diffRuns       = flag.String("diff-runs", "", "with -mode diff: two comma-separated run IDs (or unique prefixes) to compare instead of the app's last two")
	trendRuns      = flag.Int("trend-runs", flight.DefaultTrendRuns, "with -mode trends: trailing runs to compare (the newest against up to N-1 predecessors)")
	trendThreshold = flag.Float64("trend-threshold", flight.DefaultTrendThreshold, "with -mode trends: relative drift past which a metric is flagged (strictly greater than)")

	// Distributed execution and the disk cache.
	workerMode = flag.Bool("worker", false, "run as a campaign worker speaking NDJSON on stdio (spawned by -workers; not for interactive use)")
	checkpoint = flag.String("checkpoint", "", "journal completed work items to this JSONL file (needs -workers)")
	resume     = flag.String("resume", "", "skip work items already completed in this checkpoint journal")
	diskCache  = flag.String("disk-cache", "", "content-addressed disk execution cache directory, shared across runs (with -workers, each worker opens it itself)")
	cacheMax   = flag.Int64("cache-max-bytes", 0, "disk cache size cap in bytes before LRU eviction (0 = 256 MiB)")
)

func main() {
	spec := launch.DefaultSpec()
	spec.Bind(flag.CommandLine)
	flag.Parse()
	// Every mode returns its exit code instead of exiting, so its deferred
	// flushes (metrics, trace and perf files) have run by now.
	os.Exit(dispatch(spec))
}

func dispatch(spec launch.Spec) int {
	if *workerMode {
		return runWorker()
	}
	switch *mode {
	case "diff":
		return runDiff(*ledgerDir, spec.App, *diffRuns)
	case "profile":
		return runProfile(*traceOut, *eventsOut, *perfOut)
	case "trends":
		return runTrends(*ledgerDir, spec.App, *trendRuns, *trendThreshold)
	case "stats", "suggest-deps", "run", "explain", "rerun":
		return runLocal(spec)
	}
	fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
	return 2
}

// runWorker implements -worker: serve one campaign over the NDJSON
// protocol on stdio, for a coordinator that spawned this process.
func runWorker() int {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	env := dist.WorkerEnv{DiskCacheDir: *diskCache, DiskCacheMaxBytes: *cacheMax}
	if err := dist.ServeWorkerEnv(os.Stdin, out, apps.ByName, env); err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf worker:", err)
		return 1
	}
	return 0
}

// workerCmd builds the command of one stdio worker subprocess: this binary
// with -worker and, when dir is set, dir as its own disk tier, capped at
// maxBytes. -mode run|explain|rerun -workers spawn through it.
func workerCmd(dir string, maxBytes int64) (func() *exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-worker"}
	if dir != "" {
		args = append(args, "-disk-cache", dir, "-cache-max-bytes", fmt.Sprint(maxBytes))
	}
	return func() *exec.Cmd { return exec.Command(exe, args...) }, nil
}
