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
	"bufio"
	"bytes"
	"fmt"
	"io"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/obs"
)

// Message types of the coordinator↔worker wire protocol. Every message
// is one JSON object on one line. The coordinator writes init / run /
// quarantine / bye, the worker writes ready / result, and either side
// treats EOF as the peer's death; nothing waits for a reply.
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
)

// maxLine caps one wire frame or journal record, newline included.
const maxLine = 64 << 20

// Frames and journal records are JSON, written and read by
// internal/canonjson: json.Marshal's bytes and a newline, so a peer or a
// journal written by encoding/json reads the same, and the other way
// round. A reader decodes each line straight into what it keeps, drawing
// its strings from an interner of its own (one per session or journal
// read), and reuses the line's buffer at once.

// errLineTooLong ends a read whose line exceeds maxLine.
var errLineTooLong = fmt.Errorf("dist: line longer than %d bytes", maxLine)

// lineBufs keeps the buffers lines are assembled in — the frames a
// session reads, the records a journal writes — between the sessions and
// journals that use them; no decoded value keeps a byte of one. It is a
// free list rather than a sync.Pool: a campaign's sessions and journals
// are seconds apart, a pool's buffers do not outlive the collections in
// between, and each user would grow a buffer to its largest line again.
// It keeps four: a campaign on two workers holds two sessions' buffers and
// its journal's at once, and a respawned session overlaps the one it
// replaces.
var lineBufs = make(chan []byte, 4)

// maxPooledLine is the largest buffer handed back to lineBufs, so one
// outsized line does not stay pinned behind every later session.
const maxPooledLine = 2 << 20

func getLineBuf() []byte {
	select {
	case b := <-lineBufs:
		return b
	default:
		return nil
	}
}

func putLineBuf(b []byte) {
	if b == nil || cap(b) > maxPooledLine {
		return
	}
	select {
	case lineBufs <- b[:0]:
	default:
	}
}

// lineReader reads the lines of a frame stream or a journal; it takes a
// buffer from lineBufs, which close gives back.
type lineReader struct {
	r   *bufio.Reader
	buf []byte
	// torn is set once next has returned a last line without a newline:
	// what a writer killed mid-line leaves.
	torn bool
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReader(r), buf: getLineBuf()}
}

// next returns the next line without its end-of-line marker — a newline
// and a carriage return before it, as bufio.ScanLines drops them — valid
// until the next call. A last line without a newline is returned too; past
// it, next returns io.EOF.
func (lr *lineReader) next() ([]byte, error) {
	line := lr.buf[:0]
	for {
		chunk, err := lr.r.ReadSlice('\n')
		if len(line)+len(chunk) > maxLine {
			return nil, errLineTooLong
		}
		if err == nil && len(line) == 0 {
			return dropEOL(chunk), nil // the line is in the reader's buffer
		}
		if len(chunk) > 0 {
			line = append(line, chunk...)
			lr.buf = line
		}
		switch {
		case err == nil:
			return dropEOL(line), nil
		case err == io.EOF && len(line) > 0:
			lr.torn = true
			return dropEOL(line), nil
		case err != bufio.ErrBufferFull:
			return nil, err
		}
	}
}

func (lr *lineReader) close() {
	putLineBuf(lr.buf)
	lr.buf = nil
}

func dropEOL(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'})
}

// Msg is the single wire envelope; Type selects which fields are set.
type Msg = envelope[obs.SpanRecord]

// Reply is a worker's frame as the coordinator reads it: a Msg whose span
// fragment keeps each span's attributes as the bytes of their JSON
// object, written into the coordinator's trace verbatim once the span is
// re-identified; nothing decodes them into a map. Its bytes are Msg's.
type Reply = envelope[obs.ForeignSpan]

// envelope is Msg, its spans of type S.
type envelope[S obs.SpanRecord | obs.ForeignSpan] struct {
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
	Spans []S    `json:"spans,omitempty"`
	PID   int    `json:"pid,omitempty"`
	Error string `json:"error,omitempty"`
	// Param carries the quarantined parameter of a MsgQuarantine.
	Param string `json:"param,omitempty"`
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
	Seq int `json:"seq,omitempty"`
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
	// HeartbeatMS is ignored: a worker sends nothing unprompted. It is
	// kept only for the benchmark module, which sets it, and goes with
	// ROADMAP item 1.
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
		Overrides:         c.Overrides,
		DisableExecCache:  c.DisableExecCache,
		EvidenceMax:       c.EvidenceMax,
	}
}
