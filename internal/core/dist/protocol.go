// Package dist is ZebraConf's distributed campaign executor: a
// coordinator that shards a campaign's phase-2 work items across a pool
// of worker subprocesses (`zebraconf -worker`), speaking newline-
// delimited JSON over stdin/stdout. It is the analog of the paper's
// 100-machine × 20-container CloudLab fleet (§4 "Test in parallel"): test
// instances are independent, so isolation is cheap — and unlike the
// in-process pool, a worker that hangs or corrupts itself can simply be
// killed and replaced without poisoning the rest of the campaign.
//
// The coordinator owns the campaign's work queue (one sched.Queue that
// every worker slot pops from), a crash-safe JSONL checkpoint journal (completed items are appended and
// fsync'd in batches, so -resume skips them and reproduces the identical
// merged result), and worker supervision: per-item deadlines, crash
// detection, bounded retries on a fresh worker, and quarantine of items
// that keep killing workers.
package dist

import (
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/obs"
)

// Message types of the coordinator↔worker wire protocol. Every message
// is one JSON object on one line. The coordinator writes init / run /
// quarantine / bye, the worker writes ready / result / heartbeat, and
// either side treats EOF as the peer's death; nothing waits for a reply.
const (
	// MsgInit (coordinator → worker) opens the session: the application
	// name and the campaign configuration the worker should execute
	// items under.
	MsgInit = "init"
	// MsgReady (worker → coordinator) acknowledges init.
	MsgReady = "ready"
	// MsgRun (coordinator → worker) dispatches one work item. Up to
	// Config.Parallel items may be outstanding at once.
	MsgRun = "run"
	// MsgResult (worker → coordinator) returns one completed item.
	MsgResult = "result"
	// MsgBye (coordinator → worker) asks for a clean drain-and-exit.
	MsgBye = "bye"
	// MsgQuarantine (coordinator → worker) broadcasts one parameter
	// confirmed unsafe by enough distinct tests (§4's frequent-failer
	// rule): workers skip its remaining instances. Best-effort and purely
	// a pruning hint — a worker that never hears it just does extra work,
	// and skipped instances merge as skipped, not failed, so resume stays
	// correct.
	MsgQuarantine = "quarantine"
	// MsgHeartbeat (worker → coordinator) is the periodic liveness beat
	// (Config.HeartbeatMS), carrying a health snapshot in HB. Purely
	// advisory: the coordinator uses missed beats to flag stalled workers
	// but never kills on them — the per-item deadline still governs.
	MsgHeartbeat = "heartbeat"
)

// maxLine caps one wire frame or journal record. Line readers start small
// and grow on demand up to it, so a session costs what its frames need.
const maxLine = 64 << 20

// Heartbeat is the health snapshot riding in a MsgHeartbeat.
type Heartbeat struct {
	// Inflight lists the IDs of work items currently executing.
	Inflight []int `json:"inflight,omitempty"`
	// Executions counts unit-test executions completed by this worker
	// process so far (per-item tallies, summed as results are sent).
	Executions int64 `json:"executions,omitempty"`
	// Goroutines and HeapBytes snapshot the worker runtime — a hung
	// harness shows up as a goroutine plateau, a leak as heap growth.
	Goroutines int    `json:"goroutines,omitempty"`
	HeapBytes  uint64 `json:"heap_bytes,omitempty"`
}

// Msg is the single wire envelope; Type selects which fields are set.
type Msg struct {
	Type   string               `json:"type"`
	App    string               `json:"app,omitempty"`
	Config *Config              `json:"config,omitempty"`
	Item   *campaign.WorkItem   `json:"item,omitempty"`
	Result *campaign.ItemResult `json:"result,omitempty"`
	// Spans carries a MsgResult's worker-local trace fragment (set only
	// under Config.TraceItems). Span and parent IDs are local to the
	// fragment, parent 0 meaning the item root; the coordinator
	// re-identifies them under its own item span so a -workers campaign
	// renders as one tree. Telemetry, not result: it rides beside Result,
	// so nothing that persists a result ever carries it.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
	PID   int              `json:"pid,omitempty"`
	Error string           `json:"error,omitempty"`
	// Param carries the quarantined parameter of a MsgQuarantine.
	Param string `json:"param,omitempty"`
	// HB carries the health snapshot of a MsgHeartbeat.
	HB *Heartbeat `json:"hb,omitempty"`
}

// Config is the serializable subset of campaign.Options a worker needs
// to execute items exactly the way the in-process path would, plus the
// worker's own internal parallelism.
type Config struct {
	MaxPool           int      `json:"max_pool,omitempty"`
	DisablePooling    bool     `json:"disable_pooling,omitempty"`
	DisableRoundRobin bool     `json:"disable_round_robin,omitempty"`
	DisableGate       bool     `json:"disable_gate,omitempty"`
	Strategy          int      `json:"strategy,omitempty"`
	Params            []string `json:"params,omitempty"`
	Seed              int64    `json:"seed,omitempty"`
	// Seq selects the sequential confirmation mode (stats.SeqMode as an
	// int; 0 = SPRT, the default, rides as the JSON zero value).
	// SeqMargin is the budget-reallocation eligibility margin.
	Seq       int     `json:"seq,omitempty"`
	SeqMargin float64 `json:"seq_margin,omitempty"`
	// Overrides replaces schema parameter defaults worker-side (the
	// -override flag): workers resolve apps themselves, so default
	// overrides must ride the wire to keep every execution path
	// byte-identical to the coordinator's.
	Overrides map[string]string `json:"overrides,omitempty"`
	// DisableExecCache turns execution memoization off in every tier.
	DisableExecCache bool `json:"disable_exec_cache,omitempty"`
	// EvidenceMax is the per-worker evidence byte budget (the campaign's
	// -evidence-max applies to each worker process independently); zero
	// disables forensic capture, negative is unlimited.
	EvidenceMax int64 `json:"evidence_max,omitempty"`
	// Parallel bounds concurrent work items per worker subprocess — the
	// per-machine container count of the paper's fleet. Zero means 8.
	Parallel int `json:"parallel,omitempty"`
	// TraceItems asks workers to trace each item's execution and send the
	// span fragment in the result frame's Msg.Spans, for the coordinator
	// to stitch under its own item span. Set when the coordinator itself
	// is tracing; not part of campaign.Options, so ConfigFrom leaves it
	// false.
	TraceItems bool `json:"trace_items,omitempty"`
	// HeartbeatMS is the worker heartbeat period in milliseconds; zero
	// disables heartbeats (and with them coordinator stall detection).
	// Not part of campaign.Options, so ConfigFrom leaves it zero —
	// launch.Campaign sets it to DefaultHeartbeatMS.
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
}

// ConfigFrom extracts the wire configuration from campaign options.
func ConfigFrom(opts campaign.Options) Config {
	return Config{
		MaxPool:           opts.MaxPool,
		DisablePooling:    opts.DisablePooling,
		DisableRoundRobin: opts.DisableRoundRobin,
		DisableGate:       opts.DisableGate,
		Strategy:          int(opts.Strategy),
		Params:            opts.Params,
		Seed:              opts.Seed,
		Seq:               int(opts.Seq),
		SeqMargin:         opts.SeqMargin,
		Overrides:         opts.Overrides,
		DisableExecCache:  opts.DisableExecCache,
		EvidenceMax:       opts.EvidenceMax,
	}
}

// CampaignOptions converts the wire configuration back into the options
// a worker-side ExecuteItem call consumes. Obs stays nil: workers are
// observed from the coordinator side through their item results.
func (c Config) CampaignOptions() campaign.Options {
	return campaign.Options{
		MaxPool:           c.MaxPool,
		DisablePooling:    c.DisablePooling,
		DisableRoundRobin: c.DisableRoundRobin,
		DisableGate:       c.DisableGate,
		Strategy:          agent.Strategy(c.Strategy),
		Params:            c.Params,
		Seed:              c.Seed,
		Seq:               stats.SeqMode(c.Seq),
		SeqMargin:         c.SeqMargin,
		Overrides:         c.Overrides,
		DisableExecCache:  c.DisableExecCache,
		EvidenceMax:       c.EvidenceMax,
	}
}
