package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/harness"
)

// outDir holds everything a run leaves behind (state directories while it
// runs, trace files afterwards). It is relative to the working directory,
// which `go run -C bench .` makes this package's own directory.
const outDir = "out"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one workload process measured.
type runResult struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Env      fingerprint `json:"env"`

	Passes    int   `json:"passes"`
	SetupReps int   `json:"setup_reps"`
	Resolved  int64 `json:"resolved"` // executed + cache-served, all timed passes
	Served    int64 `json:"served"`   // the cache-served part of Resolved
	// ResolvedPerPass lists each timed pass's resolved-execution count:
	// the determinism check across runs of one seed.
	ResolvedPerPass []int64 `json:"resolved_per_pass"`
	// PassSeconds are the timed passes' wall times, the samples behind
	// makespan_s; P90 is reported once there are ten samples beyond it.
	PassSeconds  []float64 `json:"pass_seconds"`
	MakespanP90S float64   `json:"makespan_p90_s,omitempty"`
	// PassPeakRSSMB are the samples behind peak_rss_mb.
	PassPeakRSSMB []float64 `json:"pass_peak_rss_mb"`

	Attempted int      `json:"attempted_ops"`
	Failed    int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`
	// CountDrift counts campaigns whose resolved-execution count differed
	// from the oracle's pinned one (seed 1) or from an earlier pass on the
	// same seed. A failed operation only on an exact-count workload.
	CountDrift int `json:"count_drift_ops"`

	Metrics map[string]metric `json:"metrics"`
	// Unbounded holds exec_per_s and cpu_s_per_kexec of an untraced run:
	// reported, but too noisy on this kind of host to carry a bound.
	Unbounded map[string]metric `json:"unbounded,omitempty"`
}

// region is one measured stretch of passes. cpu is summed over its passes,
// so that two regions can interleave (measureTraced).
type region struct {
	cpu, allocMB    float64
	passSeconds     []float64
	passPeakRSSMB   []float64
	resolved, saved int64
	perPass         []int64
}

// cpuOf is the user+sys CPU seconds getrusage reports for who: this
// process, or every child it has waited for.
func cpuOf(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0 // not reachable on Linux with a valid who
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func cpuSeconds() float64 { return cpuOf(syscall.RUSAGE_SELF) + cpuOf(syscall.RUSAGE_CHILDREN) }

// peakRSSMB is this process's peak resident set since the last resetPeakRSS,
// from VmHWM in /proc/self/status. Not getrusage's ru_maxrss: that survives
// exec, so under `go run` it starts at the go command's own resident set
// (20 MB, more than a whole yarn-wait run needs), and a worker's starts at
// its coordinator's.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// rssPasses is the number of timed passes, from the first, that peak_rss_mb
// is the median of. A fixed stretch, not the whole run: every execution arms
// a time.After(harness.DefaultTestTimeout) that stays reachable for its 15
// seconds, so a process's resident set climbs with the executions it has
// made (0.1 MB per miniflink campaign) until the first timers fire, and a
// median over all of a run's passes would rise with the number of passes the
// clock allowed — a faster engine would read as a larger one. On the two
// workloads that make more passes than this, the set-up and these first
// passes end inside those 15 seconds (flink-cpu after 6, threeapp-warm after
// 11), so what they retain depends on what they executed and not on how fast.
const rssPasses = 20

// resetPeakRSS sets the kernel's high-water mark back to the current
// resident set, so that each pass has a peak of its own. The error is
// dropped: where /proc/self/clear_refs cannot be written the mark is the
// run's so far, which after the first passes reads the same plateau.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// campaignRun is campaign.Run under a span.
func (rc *runCtx) campaignRun(app *harness.App, opts campaign.Options) *campaign.Result {
	start := time.Now()
	res := campaign.Run(app, opts)
	rc.rec.add(span{Name: spanCampaign, Parent: spanPass, App: app.Name,
		Start: start.UnixNano(), End: time.Now().UnixNano()})
	return res
}

// measure runs timed passes for about `seconds`: at least minPasses, then
// for as long as half of another pass of the last one's length still
// fits. Passes are whole, so the amount of work in a pass never depends on
// the clock.
func measure(rc *runCtx, chk *checker, seconds float64, minPasses int) (region, error) {
	var r region
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(t0).Seconds()+r.passSeconds[i-1]/2 > seconds {
			break
		}
		if err := r.runPass(rc, chk, i); err != nil {
			return r, err
		}
	}
	runtime.ReadMemStats(&ms1)
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return r, nil
}

// runPass runs pass i, holds its campaigns to the oracle and adds it to
// the region.
func (r *region) runPass(rc *runCtx, chk *checker, i int) error {
	w := rc.w
	rc.rec.setPass(i)
	seed := rc.campaignSeed(i)
	resetPeakRSS()
	cpu0 := cpuSeconds()
	start := time.Now()
	results, err := w.pass(rc, seed)
	end := time.Now()
	if err != nil {
		return fmt.Errorf("%s pass %d: %w", w.name, i, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.passPeakRSSMB = append(r.passPeakRSSMB, rss)
	rc.rec.add(span{Name: spanPass, Start: start.UnixNano(), End: end.UnixNano()})
	// A worker's CPU time reaches RUSAGE_CHILDREN when it is reaped.
	if err := workers.waitReaped(); err != nil {
		return err
	}
	r.cpu += cpuSeconds() - cpu0
	r.passSeconds = append(r.passSeconds, end.Sub(start).Seconds())
	var resolved int64
	for _, res := range results {
		resolved += res.Counts.Executed + res.Counts.ExecutionsSaved
		r.saved += res.Counts.ExecutionsSaved
		chk.check(w, seed, res)
	}
	r.resolved += resolved
	r.perPass = append(r.perPass, resolved)
	return nil
}

// measureTraced runs every pass twice, untraced and traced, for about
// `seconds` in all. Pairing the two keeps a host that speeds up or slows
// down during the run out of the overhead figure, and alternating which
// goes first keeps out whatever the first of a pair leaves the second
// (garbage to collect, a warm cache).
func measureTraced(rc *runCtx, chk *checker, seconds float64, rec *recorder) (plain, traced region, err error) {
	w := rc.w
	t0 := time.Now()
	for i := 0; ; i++ {
		if i >= (w.minPasses+1)/2 && time.Since(t0).Seconds()+(plain.passSeconds[i-1]+traced.passSeconds[i-1])/2 > seconds {
			break
		}
		for half := 0; half < 2; half++ {
			r := &plain
			rc.rec = nil
			if half != i%2 {
				r, rc.rec = &traced, rec
			}
			if err := r.runPass(rc, chk, i); err != nil {
				return plain, traced, err
			}
		}
	}
	return plain, traced, nil
}

// setUp runs the workload's set-up reps times and returns each one's wall
// time.
func setUp(rc *runCtx, reps int) ([]float64, error) {
	w := rc.w
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := w.setup(rc); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if err := workers.waitReaped(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return setups, nil
}

func (reg region) execPerS() float64 {
	var wall float64
	for _, s := range reg.passSeconds {
		wall += s
	}
	return float64(reg.resolved) / wall
}

func (reg region) cpuSPerKexec() float64 { return reg.cpu / float64(reg.resolved) * 1000 }

// setEndToEnd derives the end-to-end metrics, and the two unbounded ones,
// from a measured region and the set-up times before it.
func (r *runResult) setEndToEnd(reg region, setups []float64) {
	kexec := float64(reg.resolved) / 1000
	r.Unbounded = map[string]metric{
		"exec_per_s":      {Value: reg.execPerS(), Unit: lookupMetric(unbounded, "exec_per_s").Unit},
		"cpu_s_per_kexec": {Value: reg.cpuSPerKexec(), Unit: lookupMetric(unbounded, "cpu_s_per_kexec").Unit},
	}
	r.set("makespan_s", median(reg.passSeconds))
	r.set("alloc_mb_per_kexec", reg.allocMB/kexec)
	r.set("peak_rss_mb", median(reg.passPeakRSSMB[:min(rssPasses, len(reg.passPeakRSSMB))]))
	r.set("setup_s", median(setups))
	if len(reg.passSeconds) >= 100 {
		r.MakespanP90S = quantile(reg.passSeconds, 0.90)
	}
}

// runWorkload is one workload process: set-up, the measured region, the
// oracle check, and — traced — the ladder and a second, traced region.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "state-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	rc := &runCtx{w: w, seed: seed, dir: dir, exe: exe, apps: appOrder(seed)}
	oracle, err := loadOracle()
	if err != nil {
		return nil, err
	}
	chk := &checker{oracle: oracle}
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Env: takeFingerprint(), SetupReps: w.setupReps, Metrics: make(map[string]metric)}

	setups, err := setUp(rc, w.setupReps)
	if err != nil {
		return nil, err
	}
	if !traced {
		r, err := measure(rc, chk, seconds, w.minPasses)
		if err != nil {
			return nil, err
		}
		res.fill(r, chk)
		res.setEndToEnd(r, setups)
		return res, nil
	}

	// Traced: the ladder first (nothing else is running), then every pass
	// untraced and again traced, so the overhead compares like with like.
	ladder, err := runLadder(rc)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	rec := &recorder{dir: filepath.Join(dir, "spans")}
	if err := os.Mkdir(rec.dir, 0o755); err != nil {
		return nil, err
	}
	plain, tr, err := measureTraced(rc, chk, seconds, rec)
	if err != nil {
		return nil, err
	}
	spans, err := rec.stitched()
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	res.fill(tr, chk)
	for name, v := range ladder {
		res.Metrics[name] = v
	}
	t := analyze(spans, w.slots)
	res.layer("apps.body_s", t.bodyS)
	res.layer("apps.body_count", float64(t.bodyCount))
	res.layer("campaign.slot_idle_s", t.idleS)
	res.layer("campaign.self_s", t.selfS)
	res.layer("campaign.exec_per_s", plain.execPerS())
	res.layer("campaign.cpu_s_per_kexec", plain.cpuSPerKexec())
	res.layer("memo.served_ratio", float64(tr.saved)/float64(tr.resolved))
	res.layer("diskcache.backend_get_s", t.getS)
	res.layer("diskcache.backend_get_count", float64(t.getCount))
	res.layer("diskcache.backend_put_s", t.putS)
	res.layer("dist.submit_to_result_s", t.submitToResultS)
	res.layer("trace.overhead_pct", 100*(median(tr.passSeconds)/median(plain.passSeconds)-1))
	return res, nil
}

func (r *runResult) fill(reg region, chk *checker) {
	r.Passes = len(reg.passSeconds)
	r.PassSeconds = reg.passSeconds
	r.PassPeakRSSMB = reg.passPeakRSSMB
	r.Resolved = reg.resolved
	r.Served = reg.saved
	r.ResolvedPerPass = reg.perPass
	r.Attempted = chk.attempted
	r.Failed = len(chk.failures)
	r.Failures = chk.failures
	r.CountDrift = chk.drifted
}

// set records an end-to-end metric, layer a per-layer one; the unit comes
// from the table.
func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: lookupMetric(endToEnd, name).Unit}
}

func (r *runResult) layer(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: lookupMetric(perLayer, name).Unit}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
