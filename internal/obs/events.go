package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"zebraconf/internal/canonjson"
)

// Event names form the flight-recorder catalog: every discrete campaign
// state change worth replaying after the fact gets one typed event. The
// set is deliberately closed — consumers (CI assertions, -mode profile,
// post-mortem scripts) key off these strings, so additions belong here,
// next to their documentation, with a row in fold below saying which
// metrics the event implies.
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
	// EvItemQueued marks one work item built from its pre-run and
	// awaiting execution. Attrs: app, item, test, pred_s (the scheduler's
	// predicted duration, 0 when it has none) (+ leaked=1: its pre-run's).
	EvItemQueued = "item_queued"
	// EvItemDispatch marks one work item starting execution — on the
	// in-process pool or on a worker subprocess. Attrs: app, item, test
	// (+ worker in dist mode).
	EvItemDispatch = "item_dispatch"
	// EvItemComplete marks one work item's result being accounted.
	// Attrs: app, item, test, elapsed_s (+ worker in dist mode), pred_s
	// and the result's nonzero tallies (see itemTally); or app, item, test,
	// stored=true for an item that did not execute — a stored result
	// (-resume, -mode rerun) stood in for it, and carries no tallies.
	EvItemComplete = "item_complete"
	// EvItemRetried marks a crashed or timed-out item re-entering the
	// queue. Attrs: app, item, test, reason.
	EvItemRetried = "item_retried"
	// EvItemQuarantined marks an item abandoned past its retry budget.
	// Attrs: app, item, test, reason.
	EvItemQuarantined = "item_quarantined"
	// EvWorkerSpawn / EvWorkerReady / EvWorkerCrash / EvWorkerDone track
	// worker lifecycle; done is a session retired with the run, crash a
	// worker lost. Attrs: app, worker (+ pid on spawn and ready; reason
	// on crash: crash = lost after becoming ready, timeout = killed over
	// an overdue item, spawn = never became ready).
	EvWorkerSpawn = "worker_spawn"
	EvWorkerReady = "worker_ready"
	EvWorkerCrash = "worker_crash"
	EvWorkerDone  = "worker_done"
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

// fold applies one event to every view derived from the catalog — the
// metrics the event implies and the sampler's item table — straight from
// its attributes, and reports whether the catalog knows the event. It is
// the only place that decides what a campaign fact feeds: the engine
// emits the event and nothing beside it. (Per-execution measurements,
// settings and gauges stay direct registry calls; see DESIGN.md §7.)
func (o *Observer) fold(event string, a attrs) bool {
	app, s := a.str("app"), o.Status
	switch event {
	case EvCampaignStart:
		s.campaignBegin(o.tally(CampaignStatus{App: app}, -1))
	case EvPhaseFinish:
		o.Observe(MPhaseSeconds, a.num("elapsed_s"), "app", app, "phase", a.str("phase"))
	case EvItemQueued:
		o.itemTally(app, a)
		s.setItem(a.int("item"), anyState, itemQueued)
	case EvItemDispatch:
		s.setItem(a.int("item"), itemQueued, itemRunning)
	case EvItemComplete:
		// A worker attribute tells the coordinator's lane from the
		// in-process pool's, the rule flight uses too.
		secs := a.num("elapsed_s")
		if stored, _ := a.get("stored").(bool); stored {
			o.CounterAdd(MItemsResumed, 1, "app", app)
		} else if a.has("worker") {
			o.Observe(MItemSeconds, secs, "app", app)
			o.CounterAdd(MWorkerItems, 1, "app", app, "worker", a.label("worker"))
		} else {
			o.Observe(MItemRunSeconds, secs, "app", app, "stage", "instances")
		}
		if pred := a.num("pred_s"); pred > 0 {
			o.Observe(MSchedPredRatio, secs/pred, "app", app)
		}
		o.itemTally(app, a)
		s.setItem(a.int("item"), anyState, itemDone)
	case EvItemRetried:
		o.CounterAdd(MItemRetries, 1, "app", app)
		s.setItem(a.int("item"), itemRunning, itemQueued)
	case EvItemQuarantined:
		o.CounterAdd(MItemsQuarantined, 1, "app", app)
		s.setItem(a.int("item"), anyState, itemDone)
	case EvWorkerSpawn:
		o.CounterAdd(MWorkerSpawns, 1, "app", app, "worker", a.label("worker"))
	case EvWorkerCrash:
		o.CounterAdd(MWorkerCrashes, 1, "app", app, "reason", a.str("reason"))
	case EvCacheHit:
		if scope := a.str("scope"); scope == "coalesced" {
			o.CounterAdd(MCacheCoalesced, 1, "app", app)
		} else {
			o.CounterAdd(MCacheHits, 1, "app", app, "scope", scope)
		}
	case EvParamQuarantined:
		o.CounterAdd(MQuarantine, 1, "app", app)
	case EvCampaignFinish, EvPhaseStart, EvWorkerReady, EvWorkerDone, EvVerdict:
		// The log's alone: no metric or table is derived from these.
	default:
		return false
	}
	return true
}

// itemTally folds the tallies a work item's events carry — what its
// ItemResult says happened, counted once whichever executor ran it — into
// the registry families they feed. An absent attribute is a zero tally.
func (o *Observer) itemTally(app string, a attrs) {
	for _, at := range a {
		n := int64(num(at.Value))
		switch at.Key {
		case "instances":
			o.GaugeAdd(MInstancesTotal, n, "app", app)
			o.GaugeAdd(MInstancesDone, n, "app", app)
		case "executions":
			o.CounterAdd(MItemExecutions, n, "app", app)
		case "executions_saved":
			o.GaugeAdd(MCacheSaved, n, "app", app)
		case "safe", "unsafe", "filtered", "homo_invalid":
			o.CounterAdd(MVerdicts, n, "app", app, "verdict", strings.ReplaceAll(at.Key, "_", "-"))
		case "first_trial":
			o.CounterAdd(MFirstTrial, n, "app", app)
		case "trials_saved_early":
			o.CounterAdd(MTrialsSaved, n, "app", app, "kind", "early-stop")
		case "evidence":
			o.CounterAdd(MEvidenceRecords, n, "app", app)
		case "evidence_budget":
			o.CounterAdd(MEvidenceTruncated, n, "app", app, "reason", "budget")
		case "leaked":
			o.CounterAdd(MAbandonedGoroutines, n, "app", app, "test", a.str("test"))
		case "skipped":
			o.CounterAdd(MSkippedTests, n, "app", app)
		}
	}
}

// attrs reads the attribute list an event was emitted with. A number is
// an int64 or float64 from the Attr constructors and always a float64
// from a replayed JSONL log; num and int take both.
type attrs []Attr

func (a attrs) get(key string) any {
	for _, at := range a {
		if at.Key == key {
			return at.Value
		}
	}
	return nil
}

func (a attrs) has(key string) bool { return a.get(key) != nil }

func (a attrs) str(key string) string {
	s, _ := a.get(key).(string)
	return s
}

func (a attrs) num(key string) float64 { return num(a.get(key)) }

func num(v any) float64 {
	switch v := v.(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

func (a attrs) int(key string) int { return int(a.num(key)) }

// label renders an integer attribute as a metric label value.
func (a attrs) label(key string) string { return strconv.Itoa(a.int(key)) }

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
	mu sync.Mutex
	w  io.Writer
	// line is the buffer each record is encoded into.
	line  []byte
	epoch time.Time
}

// NewEventLog returns an event log writing JSONL records to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w, epoch: time.Now()}
}

// Emit appends one event: json.Marshal's bytes of its record and a
// newline, written in one call. Encoding and write errors are deliberately
// dropped: the flight recorder must never fail the campaign it is
// recording.
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
	line, err := canonjson.Append(l.line[:0], &rec)
	if err != nil {
		return
	}
	l.line = append(line, '\n')
	_, _ = l.w.Write(l.line)
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
