package obs

// PerfSummary is the compact per-run performance record appended to the
// run ledger: where the makespan went, how busy the execution slots
// were, the item-duration and queue-wait tails, and what each savings
// feature contributed. It is derived entirely from the observer at
// campaign end, so it costs nothing during the run, and every field is
// advisory — the equivalence invariant still pins only the reported
// set. `zebraconf -mode trends` compares these fields across runs.
//
// Ledger schema note: records written before this summary existed
// simply lack the "perf" key; readers treat a nil PerfSummary as "no
// perf data" rather than an error, so ledgers mix old and new records
// freely.
type PerfSummary struct {
	// MakespanSeconds duplicates the record's makespan so the summary is
	// self-contained for trend comparison.
	MakespanSeconds float64 `json:"makespan_seconds"`
	// PhaseSeconds breaks the makespan down per campaign phase (prerun /
	// instances / scoring; phases overlap under -stream, so the parts
	// may sum past the whole).
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// UtilizationPct is aggregate slot occupancy over the run: total
	// busy item-seconds divided by makespan x slots, in percent.
	UtilizationPct float64 `json:"utilization_pct"`
	// Slots is the parallel execution budget the utilization divides by
	// (workers x per-worker parallelism in dist mode).
	Slots int `json:"slots,omitempty"`
	// P50ItemSeconds / P95ItemSeconds are the per-work-item duration
	// quantiles, estimated from the item histogram buckets.
	P50ItemSeconds float64 `json:"p50_item_seconds"`
	P95ItemSeconds float64 `json:"p95_item_seconds"`
	// P95QueueWaitSeconds is the queue-wait tail: how long ready work
	// sat in the dispatch queue, from push to pop, on every path.
	P95QueueWaitSeconds float64 `json:"p95_queue_wait_seconds"`
	// Savings attribution counters.
	Executions        int64   `json:"executions"`
	ExecutionsSaved   int64   `json:"executions_saved"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	TrialsSavedEarly  int64   `json:"trials_saved_early_stop,omitempty"`
	TrialsReallocated int64   `json:"trials_reallocated,omitempty"`
	// PerfSamples counts sampler snapshots taken (0 when -perf was off).
	PerfSamples int `json:"perf_samples,omitempty"`
}

// SummarizePerf condenses one finished campaign's observer into a
// PerfSummary. Returns nil when o carries no metrics registry (plain
// unobserved runs append ledger records without perf data, exactly like
// pre-observatory builds).
func SummarizePerf(o *Observer, app string, elapsedSeconds float64, slots int) *PerfSummary {
	if o == nil || o.Metrics == nil {
		return nil
	}
	reg := o.Metrics
	ps := &PerfSummary{
		MakespanSeconds: elapsedSeconds,
		Slots:           slots,
		PerfSamples:     o.Sampler.Count(),
	}

	for _, phase := range []string{"prerun", "instances", "scoring"} {
		h := reg.HistogramValue(MPhaseSeconds, "app", app, "phase", phase)
		if h.Count > 0 {
			if ps.PhaseSeconds == nil {
				ps.PhaseSeconds = make(map[string]float64, 3)
			}
			ps.PhaseSeconds[phase] = h.Sum
		}
	}

	// Busy time: the in-process pool observes MItemRunSeconds per item,
	// the dist coordinator observes MItemSeconds (dispatch to result).
	// A run uses one or the other, so merging both double-counts nothing.
	items := reg.HistogramValue(MItemRunSeconds, "app", app, "stage", "instances")
	items.Merge(reg.HistogramValue(MItemSeconds, "app", app))
	if items.Count > 0 {
		ps.P50ItemSeconds = items.Quantile(0.50)
		ps.P95ItemSeconds = items.Quantile(0.95)
		if elapsedSeconds > 0 && slots > 0 {
			ps.UtilizationPct = 100 * items.Sum / (elapsedSeconds * float64(slots))
			if ps.UtilizationPct > 100 {
				ps.UtilizationPct = 100
			}
		}
	}

	wait := reg.HistogramValue(MSchedQueueWait, "app", app)
	if wait.Count > 0 {
		ps.P95QueueWaitSeconds = wait.Quantile(0.95)
	}

	t := o.tally(CampaignStatus{App: app}, 1)
	ps.Executions, ps.ExecutionsSaved = t.Executions, t.ExecutionsSaved
	if total := ps.Executions + ps.ExecutionsSaved; total > 0 {
		ps.CacheHitRate = float64(ps.ExecutionsSaved) / float64(total)
	}
	ps.TrialsSavedEarly = reg.CounterValue(MTrialsSaved, "app", app, "kind", "early-stop")
	ps.TrialsReallocated = reg.CounterValue(MTrialsSaved, "app", app, "kind", "reallocated")
	return ps
}
