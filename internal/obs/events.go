package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event names form the flight-recorder catalog: every discrete campaign
// state change worth replaying after the fact gets one typed event. The
// set is deliberately closed — consumers (the watch dashboard, CI
// assertions, post-mortem scripts) key off these strings, so additions
// belong here, next to their documentation.
const (
	// EvCampaignStart / EvCampaignFinish bracket one campaign.
	// Attrs: app, tests, params (start); app, reported, executions,
	// executions_saved, elapsed_s (finish).
	EvCampaignStart  = "campaign_start"
	EvCampaignFinish = "campaign_finish"
	// EvPhaseStart / EvPhaseFinish bracket one campaign phase.
	// Attrs: app, phase (+ elapsed_s on finish).
	EvPhaseStart  = "phase_start"
	EvPhaseFinish = "phase_finish"
	// EvItemDispatch marks one work item starting execution — on the
	// in-process pool or on a worker subprocess. Attrs: app, item, test
	// (+ worker, spec in dist mode).
	EvItemDispatch = "item_dispatch"
	// EvItemComplete marks one work item's result being accounted.
	// Attrs: app, item, test, elapsed_s (+ worker, spec in dist mode).
	EvItemComplete = "item_complete"
	// EvItemRetried marks a crashed or timed-out item re-entering the
	// queue. Attrs: app, item, test, reason.
	EvItemRetried = "item_retried"
	// EvItemQuarantined marks an item abandoned past its retry budget.
	// Attrs: app, item, test, reason.
	EvItemQuarantined = "item_quarantined"
	// EvWorkerSpawn / EvWorkerReady / EvWorkerCrash track worker
	// subprocess lifecycle. Attrs: app, worker (+ pid on ready, reason
	// on crash).
	EvWorkerSpawn = "worker_spawn"
	EvWorkerReady = "worker_ready"
	EvWorkerCrash = "worker_crash"
	// EvWorkerStalled fires when a worker misses heartbeats past the
	// stall threshold; EvWorkerRecovered when its heartbeats resume.
	// Stalls are advisory — the worker is not killed (the per-item
	// deadline still governs). Attrs: app, worker, silent_s (stalled);
	// app, worker (recovered).
	EvWorkerStalled   = "worker_stalled"
	EvWorkerRecovered = "worker_recovered"
	// EvSpeculate marks a straggler item re-issued to an idle worker;
	// EvSpeculationWin a speculative copy winning the race;
	// EvSpeculationLoss a duplicate result discarded before accounting.
	// Attrs: app, item, worker (+ spec on loss: whether the losing
	// arrival was the speculative copy).
	EvSpeculate       = "speculate"
	EvSpeculationWin  = "speculation_win"
	EvSpeculationLoss = "speculation_loss"
	// EvCacheHit marks one execution avoided by memoization.
	// Attrs: app, scope (local | shared | coalesced).
	EvCacheHit = "cache_hit"
	// EvVerdict marks one instance flipping to an unsafe verdict (the
	// flip that eventually makes the report; safe verdicts are volume,
	// not signal, and stay in the metrics). Attrs: app, param, test,
	// instance, p.
	EvVerdict = "verdict"
	// EvParamQuarantined marks §4's frequent-failer rule firing for one
	// parameter. Attrs: app, param.
	EvParamQuarantined = "param_quarantined"
)

// EventRecord is the JSONL schema of one flight-recorder event: a
// monotonic epoch-relative timestamp, the event name, and its attributes.
type EventRecord struct {
	TimeUS int64          `json:"t_us"`
	Event  string         `json:"event"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// EventLog appends structured events as JSON lines. Emit serializes
// encoding under one mutex, so concurrent emitters — the in-process pool
// and the dist coordinator's sessions — interleave whole lines, never
// bytes. A nil *EventLog is valid and drops everything.
type EventLog struct {
	mu    sync.Mutex
	enc   *json.Encoder
	epoch time.Time
}

// NewEventLog returns an event log writing JSONL records to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{enc: json.NewEncoder(w), epoch: time.Now()}
}

// Emit appends one event. Encoding errors are deliberately dropped: the
// flight recorder must never fail the campaign it is recording.
func (l *EventLog) Emit(event string, attrs ...Attr) {
	if l == nil {
		return
	}
	rec := EventRecord{Event: event}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.TimeUS = time.Since(l.epoch).Microseconds()
	_ = l.enc.Encode(rec)
}

// ReadEvents parses a JSONL event log, for tests and tools.
func ReadEvents(r io.Reader) ([]EventRecord, error) {
	dec := json.NewDecoder(r)
	var out []EventRecord
	for {
		var rec EventRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}
