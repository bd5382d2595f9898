// Package obs is ZebraConf's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, histograms with Prometheus
// text exposition), a structured JSONL span tracer, a live progress
// reporter, a flight-recorder event log, and a live status tracker
// serving the /api endpoints. The campaign, runner, and harness layers
// call nil-safe Observer methods on every hot path, so with
// observability disabled (a nil *Observer) the instrumented code costs
// a nil check and nothing else.
package obs

import (
	"strconv"
	"time"
)

// Metric names form the stable catalog documented in README.md
// ("Observability"). Label sets are listed next to each name.
const (
	// MExecutions counts unit-test executions. Labels: app, arm
	// (hetero | homoA.. | pool | prerun), outcome (pass | fail).
	MExecutions = "zebraconf_executions_total"
	// MTestSeconds is the per-unit-test wall-clock histogram.
	// Labels: app, test.
	MTestSeconds = "zebraconf_unit_test_seconds"
	// MTimeouts counts unit-test executions killed by the harness
	// timeout. Labels: app, test.
	MTimeouts = "zebraconf_test_timeouts_total"
	// MVerdicts counts instance verdicts, per completed item. Labels: app,
	// verdict (safe | unsafe | filtered | homo-invalid).
	MVerdicts = "zebraconf_instance_verdicts_total"
	// MFirstTrial counts instances whose first trial showed the unsafe
	// pattern (§7.2 gating statistic), per completed item. Labels: app.
	MFirstTrial = "zebraconf_first_trial_signals_total"
	// MPValue is the distribution of final Fisher one-sided p-values
	// over instances that ran confirmation rounds. Labels: app.
	MPValue = "zebraconf_fisher_p_value"
	// MConfirmRounds is the confirmation-rounds-per-instance histogram
	// (0 when the first-trial gate stopped the instance). Labels: app,
	// verdict (safe | unsafe | filtered | homo-invalid).
	MConfirmRounds = "zebraconf_confirmation_rounds"
	// MTrialsSaved counts paired trials the sequential stopping rule
	// saved: kind=early-stop for rounds an early conviction or futility
	// stop did not run. Derived per completed item from its verdicts'
	// rounds and trials. Labels: app, kind.
	MTrialsSaved = "zebraconf_trials_saved_total"
	// MPoolRuns counts pooled heterogeneous runs. Labels: app, result
	// (pass | fail).
	MPoolRuns = "zebraconf_pool_runs_total"
	// MPoolSplits counts pool splits (each failing pool of size >= 2
	// splits once into two halves). Labels: app.
	MPoolSplits = "zebraconf_pool_splits_total"
	// MPoolDepth is the recursion-depth histogram of pooled runs
	// (depth 0 = a pool as built by BuildPools). Labels: app.
	MPoolDepth = "zebraconf_pool_split_depth"
	// MQuarantine counts parameters quarantined by the frequent-failer
	// rule. Labels: app.
	MQuarantine = "zebraconf_quarantine_events_total"
	// MSkippedTests counts unknown -tests names and completed items whose
	// test the executing process could not resolve. Labels: app.
	MSkippedTests = "zebraconf_skipped_tests_total"
	// MPhaseSeconds is the per-campaign-phase latency histogram.
	// Labels: app, phase (prerun | instances | scoring).
	MPhaseSeconds = "zebraconf_phase_seconds"
	// MInstancesTotal / MInstancesDone gauge campaign progress, both
	// advanced by each completed item's instance count. Labels: app.
	MInstancesTotal = "zebraconf_instances_total"
	MInstancesDone  = "zebraconf_instances_done"
	// MAbandonedGoroutines counts executions (pre-runs and items') whose
	// goroutines the harness abandoned (it cannot kill them in-process).
	// Labels: app, test.
	MAbandonedGoroutines = "zebraconf_abandoned_test_goroutines_total"
	// MLeakedGoroutines gauges abandoned test goroutines still running.
	// Labels: app.
	MLeakedGoroutines = "zebraconf_leaked_test_goroutines"

	// Distributed executor catalog (internal/core/dist).

	// MWorkerSpawns counts worker subprocess launches (including
	// respawns after crashes). Labels: app, worker.
	MWorkerSpawns = "zebraconf_dist_worker_spawns_total"
	// MWorkerCrashes counts worker subprocess losses. Labels: app,
	// reason (crash | timeout | spawn).
	MWorkerCrashes = "zebraconf_dist_worker_crashes_total"
	// MWorkerItems counts work items completed per worker slot (the
	// per-worker throughput series). Labels: app, worker.
	MWorkerItems = "zebraconf_dist_worker_items_total"
	// MItemSeconds is the per-work-item wall-clock histogram as seen by
	// the coordinator (dispatch to result). Labels: app.
	MItemSeconds = "zebraconf_dist_item_seconds"
	// MItemExecutions counts work items' executions, whichever executor ran
	// them (the dist_ name is kept for catalog stability). Labels: app.
	MItemExecutions = "zebraconf_dist_item_executions_total"
	// MItemRetries counts work items requeued after a worker crash or
	// deadline kill. Labels: app.
	MItemRetries = "zebraconf_dist_item_retries_total"
	// MItemsQuarantined counts work items abandoned after exhausting
	// their retry budget. Labels: app.
	MItemsQuarantined = "zebraconf_dist_items_quarantined_total"
	// MItemsResumed counts work items a stored result stood in for (a
	// checkpoint journal's under -resume, the item store's under -mode
	// rerun), in process or distributed. Labels: app.
	MItemsResumed = "zebraconf_dist_items_resumed_total"
	// MQueueDepth gauges work items waiting in the coordinator's queue.
	// Labels: app.
	MQueueDepth = "zebraconf_dist_queue_depth"
	// MHeartbeats counts worker heartbeat messages received. Labels:
	// app, worker.
	MHeartbeats = "zebraconf_dist_worker_heartbeats_total"
	// MMissedHeartbeats gauges consecutive heartbeat intervals a worker
	// has been silent for (reset to 0 on every heartbeat). Labels: app,
	// worker.
	MMissedHeartbeats = "zebraconf_dist_worker_missed_heartbeats"
	// MWorkerStalls counts workers crossing the stall threshold (silent
	// for five -heartbeat intervals; advisory — the per-item deadline
	// still governs kills). Labels: app, worker.
	MWorkerStalls = "zebraconf_dist_worker_stalls_total"

	// Adaptive scheduler catalog (internal/core/sched).

	// MSchedReordered counts work items dispatched out of arrival order
	// by the scheduler (batch LPT reorders plus queue-level overtakes).
	// Labels: app.
	MSchedReordered = "zebraconf_sched_reordered_items_total"
	// MSchedQueueWait is the per-task queue-wait histogram: how long a
	// ready task sat in the scheduler's queue before dispatch. Labels:
	// app, stage (stream = in-process pipeline, dist = coordinator queue).
	MSchedQueueWait = "zebraconf_sched_queue_wait_seconds"
	// MSchedPredRatio is the predicted-vs-actual accuracy histogram:
	// actual item seconds divided by the scheduler's prediction (1.0 =
	// perfect). Labels: app.
	MSchedPredRatio = "zebraconf_sched_predicted_vs_actual_ratio"
	// MItemRunSeconds is the per-item run-time histogram on the
	// in-process pool (the companion of MSchedQueueWait: wait vs run
	// makes tail latency attributable). Labels: app, stage (instances).
	MItemRunSeconds = "zebraconf_item_run_seconds"

	// Execution memoization catalog (internal/core/memo).

	// MCacheHits counts executions reused from the cache. Labels: app,
	// scope (local = this process's cache, shared = the persistent store
	// behind it, a -disk-cache directory).
	MCacheHits = "zebraconf_exec_cache_hits_total"
	// MCacheMisses counts cache lookups that executed for real, in the
	// process that executed them; a dist coordinator executes nothing and
	// has no such series. Labels: app.
	MCacheMisses = "zebraconf_exec_cache_misses_total"
	// MCacheCoalesced counts callers that joined an in-flight identical
	// run instead of duplicating it (singleflight). Labels: app.
	MCacheCoalesced = "zebraconf_exec_cache_coalesced_total"
	// MCacheSaved gauges the executions completed items avoided by
	// memoization (hits + shared hits + coalesced). Labels: app.
	MCacheSaved = "zebraconf_exec_cache_saved_executions"

	// Verdict forensics catalog (internal/core/forensics).

	// MEvidenceRecords counts the evidence records of completed items.
	// Labels: app.
	MEvidenceRecords = "zebraconf_evidence_records_total"
	// MEvidenceTruncated counts evidence truncation events: reason=log
	// (per-execution log ring overflowed), reason=reads (read-trace cap
	// hit), reason=budget (-evidence-max exhausted, record degraded to
	// verdict-only; counted per completed item). Labels: app, reason.
	MEvidenceTruncated = "zebraconf_evidence_truncated_total"

	// Persistent disk cache catalog (internal/core/diskcache).

	// MDiskCacheHits counts lookups served from the on-disk store.
	// Labels: none (the store outlives any one app's campaign).
	MDiskCacheHits = "zebraconf_disk_cache_hits_total"
	// MDiskCacheMisses counts lookups that fell through the disk tier.
	MDiskCacheMisses = "zebraconf_disk_cache_misses_total"
	// MDiskCacheWrites counts entries written (puts + write-throughs).
	MDiskCacheWrites = "zebraconf_disk_cache_writes_total"
	// MDiskCacheEvictions counts LRU evictions under the size cap.
	MDiskCacheEvictions = "zebraconf_disk_cache_evictions_total"
	// MDiskCacheCorrupt counts entries rejected on read (truncated,
	// garbage, or key mismatch) and deleted; each degrades to a miss.
	MDiskCacheCorrupt = "zebraconf_disk_cache_corrupt_total"
	// MDiskCacheBytes gauges the store's current payload size.
	MDiskCacheBytes = "zebraconf_disk_cache_bytes"
	// MDiskCacheEntries gauges the store's current entry count.
	MDiskCacheEntries = "zebraconf_disk_cache_entries"
	// MDiskCacheHitAge histograms seconds between an entry's creation
	// and a hit on it — how stale the reuse is (cross-campaign hits show
	// up as old entries).
	MDiskCacheHitAge = "zebraconf_disk_cache_hit_age_seconds"

	// MBuildInfo is the conventional constant-1 build-identity gauge.
	// Labels: version, go.
	MBuildInfo = "zebraconf_build_info"
)

// Bucket layouts for the catalog's histogram families.
var (
	// PValueBuckets spans the Fisher p-value range down to well under
	// the paper's 1e-4 significance level.
	PValueBuckets = []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1}
	// LatencyBuckets covers microseconds to tens of seconds.
	LatencyBuckets = []float64{1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 5, 15, 60}
	// RoundBuckets covers the confirmation-round budget (max 8).
	RoundBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	// DepthBuckets covers pool-split recursion depth (log2 of pool size).
	DepthBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 8, 10}
	// RatioBuckets covers predicted-vs-actual duration ratios, centered
	// on 1.0 (a perfect prediction) with room for 10x misses either way.
	RatioBuckets = []float64{0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 4, 10}
	// AgeBuckets covers disk-cache hit ages from same-campaign reuse
	// (seconds) out to week-old cross-campaign entries.
	AgeBuckets = []float64{1, 10, 60, 300, 1800, 3600, 6 * 3600, 24 * 3600, 7 * 24 * 3600}
)

// boundsFor maps a histogram family to its catalog bucket layout.
func boundsFor(name string) []float64 {
	switch name {
	case MPValue:
		return PValueBuckets
	case MConfirmRounds:
		return RoundBuckets
	case MPoolDepth:
		return DepthBuckets
	case MSchedPredRatio:
		return RatioBuckets
	case MDiskCacheHitAge:
		return AgeBuckets
	default:
		return LatencyBuckets
	}
}

// Observer bundles the observability sinks. Any field may be nil;
// every method is safe on a nil receiver, which is the "observability
// off" configuration used by default throughout the codebase.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	// Progress prints Campaign() while a campaign runs; it wants Status
	// (for the app and the clock) and Metrics (for the tallies) attached.
	Progress *Progress
	// Events is the campaign flight recorder (JSONL event log).
	Events *EventLog
	// Status holds the live item, worker and parameter tables behind the
	// /api endpoints; Event feeds it, Campaign / Workers / Params read it.
	Status *Status
	// Sampler is the periodic perf sampler behind -perf and /api/perf.
	Sampler *Sampler
}

// New returns an Observer with a live metrics registry and no tracer or
// progress reporter; callers attach those when the corresponding outputs
// are requested.
func New() *Observer {
	return &Observer{Metrics: NewRegistry()}
}

// CounterAdd adds delta to a named counter. Labels are key/value pairs.
func (o *Observer) CounterAdd(name string, delta int64, labels ...string) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Counter(name, labels...).Add(delta)
}

// GaugeSet sets a named gauge.
func (o *Observer) GaugeSet(name string, v int64, labels ...string) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Gauge(name, labels...).Set(v)
}

// GaugeAdd adds delta to a named gauge.
func (o *Observer) GaugeAdd(name string, delta int64, labels ...string) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Gauge(name, labels...).Add(delta)
}

// Observe records v into the named histogram family, using the catalog
// bucket layout for that family.
func (o *Observer) Observe(name string, v float64, labels ...string) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Histogram(name, boundsFor(name), labels...).Observe(v)
}

// Tracing reports whether spans are recorded: a hot path builds a span's
// attributes only then, instead of boxing them for StartSpan to drop.
func (o *Observer) Tracing() bool { return o != nil && o.Tracer != nil }

// StartSpan opens a trace span under parent (NoSpan for a root). Returns
// nil when tracing is off; a nil *Span is safe to use.
func (o *Observer) StartSpan(name string, parent SpanID, attrs ...Attr) *Span {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.Start(name, parent, attrs...)
}

// Event records one discrete campaign fact, named in the closed catalog
// of events.go: it appends to the flight-recorder event log when one is
// attached, then folds the fact into every view derived from it (see
// fold). This is the one call the engine makes for such a fact.
func (o *Observer) Event(event string, attrs ...Attr) {
	if o == nil {
		return
	}
	o.Events.Emit(event, attrs...)
	o.fold(event, attrs)
}

// SetSlots sets the number of parallel execution slots the ETA divides
// remaining work across (workers × per-worker parallelism in dist mode).
// A setting, not a fact: it stays a direct call.
func (o *Observer) SetSlots(n int) {
	if o == nil {
		return
	}
	o.Status.setSlots(n)
}

// WorkerHeartbeat records one heartbeat's health snapshot: the worker's
// row in the live table, MHeartbeats, and the MMissedHeartbeats reset.
func (o *Observer) WorkerHeartbeat(app string, slot, pid int, inflight []int, execs int64, goroutines int, heap uint64) {
	if o == nil {
		return
	}
	worker := strconv.Itoa(slot)
	o.CounterAdd(MHeartbeats, 1, "app", app, "worker", worker)
	o.GaugeSet(MMissedHeartbeats, 0, "app", app, "worker", worker)
	o.Status.workerHeartbeat(slot, pid, inflight, execs, goroutines, heap)
}

// RecordTestRun is the harness hook: one unit-test execution finished.
func (o *Observer) RecordTestRun(app, test string, timedOut bool, d time.Duration) {
	if o == nil {
		return
	}
	o.Observe(MTestSeconds, d.Seconds(), "app", app, "test", test)
	if timedOut {
		o.CounterAdd(MTimeouts, 1, "app", app, "test", test)
	}
}

// RecordExecution is the runner hook: one unit-test execution finished
// under a specific arm.
func (o *Observer) RecordExecution(app, arm string, failed bool) {
	if o == nil {
		return
	}
	outcome := "pass"
	if failed {
		outcome = "fail"
	}
	o.CounterAdd(MExecutions, 1, "app", app, "arm", arm, "outcome", outcome)
}
