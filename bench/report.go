package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint is the environment a result was measured in: the fields the
// repository's earlier BENCH_PR*.json files disagree on or leave out.
type fingerprint struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"git_commit"`
	Load1      float64 `json:"load1_at_start"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
		Load1:      -1,
	}
	// The toolchain stamps the commit when it builds inside a git
	// checkout; a copy without .git (the driver's) reads "unknown".
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &fp.Load1)
	}
	return fp
}

// resultSet is the file format of -out and the input of -compare: any
// number of workload runs, each with the fingerprint it was measured under.
type resultSet struct {
	Runs []*runResult `json:"runs"`
}

func writeResultSet(path string, rs resultSet) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultSet(path string) (resultSet, error) {
	var rs resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// driverLine is the last line of a single-workload run's standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every metric by name with unit, direction and bound, then
// the one-line JSON result.
func (r *runResult) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  passes %d  resolved %d executions, %d of them cache-served (per pass %s)\n",
		r.Workload, r.Seed, r.Traced, r.Passes, r.Resolved, r.Served, summarizeCounts(r.ResolvedPerPass))
	fmt.Fprintf(w, "env nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s load1=%.2f\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.Commit, e.Load1)
	if r.Traced {
		for _, d := range perLayer {
			m := r.Metrics[d.Name]
			fmt.Fprintf(w, "  %-31s %14.4f %-5s %-6s better  (%s)\n", d.Name, m.Value, m.Unit, d.Better, d.Doc)
		}
	} else {
		for _, d := range endToEnd {
			m := r.Metrics[d.Name]
			fmt.Fprintf(w, "  %-20s %12.4f %-4s %-6s better, bound %2.0f%%  (%s)\n",
				d.Name, m.Value, m.Unit, d.Better, 100*d.Bound, d.Doc)
		}
		for _, d := range unbounded {
			m := r.Unbounded[d.Name]
			fmt.Fprintf(w, "  %-20s %12.4f %-4s %-6s better, no bound   (%s)\n", d.Name, m.Value, m.Unit, d.Better, d.Doc)
		}
		fmt.Fprintf(w, "  makespan_s samples: %d", len(r.PassSeconds))
		if r.MakespanP90S > 0 {
			fmt.Fprintf(w, ", p90 %.4f s", r.MakespanP90S)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted_ops %d  failed_ops %d  count_drift_ops %d\n", r.Attempted, r.Failed, r.CountDrift)
	for i, f := range r.Failures {
		if i == 5 {
			fmt.Fprintf(w, "  … and %d more (all in the -out file)\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintln(w, "  FAILED:", f)
	}
	line, err := json.Marshal(driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", line)
}

// summarizeCounts prints a run of equal counts once.
func summarizeCounts(xs []int64) string {
	same := len(xs) > 0
	for _, x := range xs {
		same = same && x == xs[0]
	}
	if same {
		return fmt.Sprintf("%d ×%d", xs[0], len(xs))
	}
	if len(xs) > 6 {
		return fmt.Sprintf("%v …", xs[:6])
	}
	return fmt.Sprint(xs)
}

// runAll runs every workload `runs` times, each in a fresh child process
// of this binary so that peak RSS, heap and GC state do not leak from one
// workload into the next, and collects their result files into one set.
func runAll(seed int64, seconds float64, traced bool, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var set resultSet
	code := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			tmp := filepath.Join(outDir, fmt.Sprintf("child-%d-%s.json", os.Getpid(), w.name))
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			child, readErr := readResultSet(tmp)
			os.Remove(tmp)
			if readErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v (child: %v)\n", w.name, readErr, runErr)
				code = 1
				continue
			}
			if runErr != nil {
				code = 1 // the child printed its failed operations
			}
			set.Runs = append(set.Runs, child.Runs...)
		}
	}
	if out != "" {
		if err := writeResultSet(out, set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// byWorkloadMetric collects one result set's values per workload × metric.
func byWorkloadMetric(rs resultSet) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range rs.Runs {
		if r.Traced {
			continue // bounds apply to end-to-end metrics, which only untraced runs report
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for _, ms := range []map[string]metric{r.Metrics, r.Unbounded} {
			for name, m := range ms {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out
}

// runCompare prints, per workload × end-to-end metric (the unbounded ones
// too), both medians, the relative change, each set's interquartile spread
// and the bound. It exits 1 if b's median is worse than a's by more than
// the bound.
func runCompare(pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	va, vb := byWorkloadMetric(a), byWorkloadMetric(b)
	fmt.Printf("%-15s %-19s %12s %12s %8s %7s %7s %6s\n",
		"workload", "metric", "median a", "median b", "delta", "iqr a", "iqr b", "bound")
	code := 0
	defs := append(append([]metricDef(nil), endToEnd...), unbounded...)
	for _, w := range workloads {
		for _, d := range defs {
			xa, xb := va[w.name][d.Name], vb[w.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-15s %-19s missing from one set\n", w.name, d.Name)
				code = 1
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma // share of a's median by which b is worse
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			bound, verdict := "none", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if worse > d.Bound {
					verdict = "  WORSE THAN BOUND"
					code = 1
				}
			}
			fmt.Printf("%-15s %-19s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %6s%s\n",
				w.name, d.Name, ma, mb, 100*(mb-ma)/ma, 100*iqrShare(xa), 100*iqrShare(xb), bound, verdict)
		}
	}
	return code
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		j := i * (len(s) + 1) / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*(len(s)+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (q(3) - q(1)) / median(s)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
