// Command bench is the repository's benchmark: four named campaign
// workloads, six end-to-end metrics each, a traced run that prices every
// layer, and a comparison mode that holds two result sets to the bounds.
// README.md in this directory has the tables.
//
//	go run -C bench . -seed 1 -out results.json      # all four workloads, one child process each
//	go run -C bench . -workload flink-cpu -seed 1     # one workload, in this process
//	go run -C bench . -trace 1 -seed 1                # per-layer metrics (ladder + traced passes)
//	go run -C bench . -runs 5 -out a.json             # five runs per workload on seeds 1..5
//	go run -C bench . -compare a.json b.json          # exit 1 if any median moved past its bound
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"

	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run in this process, or 'all' to run each in a child process")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 20, "measured time per workload; passes are whole, so a run ends at the last pass that fits")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics from the ladder and from spans around each layer")
		out          = flag.String("out", "", "write the result set (environment fingerprint + every run) to this JSON file")
		runs         = flag.Int("runs", 1, "with -workload all: repeat every workload this many times, on seeds seed, seed+1, …")
		compare      = flag.Bool("compare", false, "compare two result sets given as arguments; exit 1 if a median worsened past its bound")
		worker       = flag.Bool("worker", false, "serve as a dist worker on stdio (spawned by the dist workloads)")
		traceDir     = flag.String("trace-dir", "", "with -worker: record test-body spans and leave them in this directory")
	)
	flag.Parse()

	switch {
	case *worker:
		os.Exit(serveWorker(*traceDir))
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// Two slots and two worker connections are the most any workload
	// uses; on fewer processors they would time-share and the numbers
	// would describe the host, not the program.
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: refusing to run with GOMAXPROCS < 2")
		os.Exit(2)
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive")
		os.Exit(2)
	}
	if *workloadName == "all" {
		os.Exit(runAll(*seed, *seconds, *trace != 0, *runs, *out))
	}
	w := workloadByName(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s, or all)\n", *workloadName, workloadNames())
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeResultSet(*out, resultSet{Runs: []*runResult{res}}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	res.print(os.Stdout)
	// A failed operation is a wrong answer, not a slow one: the result
	// line still goes out (correct=false) and the exit code says so.
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// serveWorker is the dist worker: the coordinator's NDJSON protocol on
// stdio, with the same app resolver the workloads use. With a trace
// directory, test bodies are wrapped and their spans written at exit.
func serveWorker(traceDir string) int {
	var rec *recorder
	if traceDir != "" {
		rec = &recorder{dir: traceDir}
	}
	resolve := func(name string) (*harness.App, error) {
		app, err := resolveApp(name)
		if err != nil {
			return nil, err
		}
		return rec.wrapApp(app), nil
	}
	w := bufio.NewWriter(os.Stdout)
	err := dist.ServeWorker(os.Stdin, w, resolve)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if rec != nil {
		path := fmt.Sprintf("%s/worker-%d.jsonl", traceDir, os.Getpid())
		if werr := writeSpans(path, rec.spans); err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	return 0
}
