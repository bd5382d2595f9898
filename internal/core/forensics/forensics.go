// Package forensics records bounded, structured evidence for unit-test
// executions: the canonical assignment and seed, a capped ring of
// harness log output, the agent's ordered config-read trace with the
// first divergent read across instances highlighted, the failure
// message, and a copy-pasteable repro command. The paper's reports only
// become findings after manual triage (§7.1: 57 reports hand-analyzed
// down to 41 true problems); evidence records make that triage
// data-driven — every reported parameter carries the execution that
// convicted it, not just a verdict label.
package forensics

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/obs"
)

// Capture defaults: per-execution caps (the ring satellite) and the
// campaign-wide byte budget behind -evidence-max.
const (
	// DefaultLogBytes caps one execution's retained harness log.
	DefaultLogBytes = 8 << 10
	// DefaultReadEvents caps one execution's recorded config reads.
	DefaultReadEvents = 256
	// DefaultBudget is the campaign-wide evidence byte budget; past it,
	// records degrade to verdict-only instead of growing without bound.
	DefaultBudget = int64(8 << 20)
)

// KV is one canonical assignment entry: entity instance, parameter,
// assigned value. A sorted []KV is the serializable, human-readable form
// of the runner's assignment map.
type KV struct {
	Entity string `json:"entity"`
	Index  int    `json:"index"`
	Param  string `json:"param"`
	Value  string `json:"value"`
}

// Arm describes one arm of a Definition 3.1 instance as it ran: its
// name (hetero, homoA, ...), the seed of its round-0 trial, and — for
// canonically-seeded arms — the assignment digest that identifies the
// execution in the memo cache, so a cached arm's evidence points at the
// original execution instead of pretending one happened here.
type Arm struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Digest is the canonical assignment digest (memo key component) for
	// homogeneous arms; empty for the label-seeded heterogeneous arm.
	Digest string `json:"digest,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	// Cached marks a round-0 result served by the execution cache; Seed
	// and Digest name the original execution it reused.
	Cached bool `json:"cached,omitempty"`
}

// Evidence is the bounded record of the execution that decided one
// instance: enough to explain the verdict and to re-run it.
type Evidence struct {
	App      string `json:"app"`
	Test     string `json:"test"`
	Instance string `json:"instance,omitempty"`
	Param    string `json:"param,omitempty"`
	// Seed is the captured heterogeneous trial's seed; Round its
	// confirmation round (0 = first trial).
	Seed  int64 `json:"seed"`
	Round int   `json:"round,omitempty"`

	Failed   bool   `json:"failed,omitempty"`
	TimedOut bool   `json:"timed_out,omitempty"`
	Msg      string `json:"msg,omitempty"`

	// Assign is the canonical heterogeneous assignment, sorted.
	Assign []KV `json:"assign,omitempty"`
	// Arms lists the instance's arms as they ran in round 0.
	Arms []Arm `json:"arms,omitempty"`

	// Hypothesis-testing trial counts across all rounds.
	HeteroFail int64 `json:"hetero_fail,omitempty"`
	HeteroPass int64 `json:"hetero_pass,omitempty"`
	HomoFail   int64 `json:"homo_fail,omitempty"`
	HomoPass   int64 `json:"homo_pass,omitempty"`

	// Log is the captured harness output (ring-capped); the dropped
	// counters mark an eviction gap between Log[0] and Log[1].
	Log             []string `json:"log,omitempty"`
	LogDroppedBytes int      `json:"log_dropped_bytes,omitempty"`
	LogDroppedMsgs  int      `json:"log_dropped_msgs,omitempty"`

	// Reads is the ordered config-read trace; FirstDivergent indexes the
	// first read that observed a different value than an earlier read of
	// the same parameter by a different instance (-1: none observed).
	Reads          []agent.ReadEvent `json:"reads,omitempty"`
	ReadsDropped   int               `json:"reads_dropped,omitempty"`
	FirstDivergent int               `json:"first_divergent"`

	// Repro is the copy-pasteable command that re-runs this instance's
	// campaign slice under the same seed.
	Repro string `json:"repro,omitempty"`

	// VerdictOnly marks a record degraded by the campaign-wide budget:
	// log and reads were stripped, identity and counts survive.
	VerdictOnly bool `json:"verdict_only,omitempty"`
}

// FromOutcome builds the evidence core from one captured heterogeneous
// execution. Instance, Param, Arms, trial counts, and Repro are filled
// in by the layers that know them.
func FromOutcome(app, test string, seed int64, round int, out harness.Outcome) *Evidence {
	return &Evidence{
		App:             app,
		Test:            test,
		Seed:            seed,
		Round:           round,
		Failed:          out.Failed,
		TimedOut:        out.TimedOut,
		Msg:             out.Msg,
		Log:             out.Logs,
		LogDroppedBytes: out.LogDroppedBytes,
		LogDroppedMsgs:  out.LogDroppedMsgs,
		Reads:           out.Reads,
		ReadsDropped:    out.ReadsDropped,
		FirstDivergent:  FirstDivergent(out.Reads),
	}
}

// AssignKV flattens an assignment's entries, already in their canonical
// sorted order (memo.CompareEntries), into the record's form.
func AssignKV(entries []memo.Entry) []KV {
	out := make([]KV, len(entries))
	for i, e := range entries {
		out[i] = KV{Entity: e.Key.NodeType, Index: e.Key.NodeIndex, Param: e.Key.Param, Value: e.Value}
	}
	return out
}

// FirstDivergent finds the first read that observed a different value
// than an earlier read of the same parameter by a different instance —
// the moment the heterogeneous configuration became visible to the
// system under test. Returns -1 when no divergence was observed (e.g.
// only one entity ever read the parameter).
func FirstDivergent(reads []agent.ReadEvent) int {
	type obsVal struct {
		entity string
		index  int
		value  string
		found  bool
	}
	seen := make(map[string][]obsVal)
	for i, r := range reads {
		for _, prev := range seen[r.Param] {
			sameInstance := prev.entity == r.Entity && prev.index == r.Index
			sameValue := prev.found == r.Found && prev.value == r.Value
			if !sameInstance && !sameValue {
				return i
			}
		}
		seen[r.Param] = append(seen[r.Param], obsVal{r.Entity, r.Index, r.Value, r.Found})
	}
	return -1
}

// DivergentPair returns the divergent read and the earlier conflicting
// read it diverged from, for rendering. ok is false when FirstDivergent
// found nothing.
func (e *Evidence) DivergentPair() (first, earlier agent.ReadEvent, ok bool) {
	i := e.FirstDivergent
	if i < 0 || i >= len(e.Reads) {
		return first, earlier, false
	}
	first = e.Reads[i]
	for j := 0; j < i; j++ {
		r := e.Reads[j]
		if r.Param != first.Param {
			continue
		}
		sameInstance := r.Entity == first.Entity && r.Index == first.Index
		sameValue := r.Found == first.Found && r.Value == first.Value
		if !sameInstance && !sameValue {
			return first, r, true
		}
	}
	return first, earlier, false
}

// RenderLog returns the captured log with an explicit truncation marker
// in place of the ring's eviction gap.
func (e *Evidence) RenderLog() []string {
	if e.LogDroppedBytes == 0 || len(e.Log) == 0 {
		return e.Log
	}
	marker := fmt.Sprintf("…truncated %d bytes (%d messages)…", e.LogDroppedBytes, e.LogDroppedMsgs)
	out := make([]string, 0, len(e.Log)+1)
	out = append(out, e.Log[0], marker)
	out = append(out, e.Log[1:]...)
	return out
}

// approxSize estimates the record's retained bytes for budget
// accounting: string payloads plus a small fixed cost per element.
func (e *Evidence) approxSize() int64 {
	n := len(e.App) + len(e.Test) + len(e.Instance) + len(e.Param) + len(e.Msg) + len(e.Repro) + 64
	for _, l := range e.Log {
		n += len(l) + 16
	}
	for _, r := range e.Reads {
		n += len(r.Entity) + len(r.Param) + len(r.Value) + len(r.Callsite) + 24
	}
	for _, kv := range e.Assign {
		n += len(kv.Entity) + len(kv.Param) + len(kv.Value) + 24
	}
	for _, a := range e.Arms {
		n += len(a.Name) + len(a.Digest) + 24
	}
	return int64(n)
}

// Recorder hands out capture specs and admits finished records against
// the campaign-wide budget. A nil *Recorder is the "evidence off"
// configuration: Spec returns the zero (no-capture) spec and Admit
// passes nil through, so instrumented code never branches.
type Recorder struct {
	app        string
	o          *obs.Observer
	logBytes   int
	readEvents int
	unlimited  bool
	remaining  atomic.Int64
}

// NewRecorder builds a recorder for app. budget is the campaign-wide
// evidence byte cap: positive enforces it, negative means unlimited,
// zero means evidence off (returns nil — the nil-safe disabled state).
func NewRecorder(app string, budget int64, o *obs.Observer) *Recorder {
	if budget == 0 {
		return nil
	}
	r := &Recorder{
		app:        app,
		o:          o,
		logBytes:   DefaultLogBytes,
		readEvents: DefaultReadEvents,
		unlimited:  budget < 0,
	}
	if budget > 0 {
		r.remaining.Store(budget)
	}
	return r
}

// Spec returns the per-execution capture bounds.
func (r *Recorder) Spec() harness.CaptureSpec {
	if r == nil {
		return harness.CaptureSpec{}
	}
	return harness.CaptureSpec{LogBytes: r.logBytes, ReadEvents: r.readEvents}
}

// Enabled reports whether capture is on.
func (r *Recorder) Enabled() bool { return r != nil }

// Admit finalizes one record against the budget: within budget the
// record passes through intact; past it, the record degrades to
// verdict-only (identity, counts, and repro survive; log and reads are
// stripped) rather than growing the store without bound. Per-execution
// ring evictions are counted on the evidence-truncated metric here; the
// record itself and its budget degradation (VerdictOnly) are counted
// when its item completes.
func (r *Recorder) Admit(ev *Evidence) *Evidence {
	if r == nil || ev == nil {
		return ev
	}
	if ev.LogDroppedBytes > 0 {
		r.o.CounterAdd(obs.MEvidenceTruncated, 1, "app", r.app, "reason", "log")
	}
	if ev.ReadsDropped > 0 {
		r.o.CounterAdd(obs.MEvidenceTruncated, 1, "app", r.app, "reason", "reads")
	}
	if !r.unlimited && r.remaining.Add(-ev.approxSize()) < 0 {
		ev.VerdictOnly = true
		ev.Log = nil
		ev.LogDroppedBytes, ev.LogDroppedMsgs = 0, 0
		ev.Reads = nil
		ev.ReadsDropped = 0
		ev.FirstDivergent = -1
	}
	return ev
}

// ReproCommand renders the copy-pasteable command that re-runs the
// campaign slice that produced a verdict: same app, unit test,
// parameter, and base seed reproduce the same trials (heterogeneous
// seeds derive from the instance label, homogeneous seeds from the
// assignment content — both functions of these four values alone).
func ReproCommand(app, test, param string, seed int64) string {
	return fmt.Sprintf("zebraconf -mode run -app %s -tests %s -params %s -seed %d",
		app, test, param, seed)
}

// Repro is a parsed repro command, for tests that round-trip it.
type Repro struct {
	App    string
	Tests  string
	Params string
	Seed   int64
}

// ParseRepro parses a ReproCommand back into its fields.
func ParseRepro(cmd string) (Repro, error) {
	fields := strings.Fields(cmd)
	if len(fields) == 0 || fields[0] != "zebraconf" {
		return Repro{}, fmt.Errorf("forensics: not a zebraconf command: %q", cmd)
	}
	if len(fields)%2 == 0 {
		return Repro{}, fmt.Errorf("forensics: repro flag %q has no value", fields[len(fields)-1])
	}
	var out Repro
	for i := 1; i+1 < len(fields); i += 2 {
		val := fields[i+1]
		switch fields[i] {
		case "-mode":
			if val != "run" {
				return Repro{}, fmt.Errorf("forensics: unexpected repro mode %q", val)
			}
		case "-app":
			out.App = val
		case "-tests":
			out.Tests = val
		case "-params":
			out.Params = val
		case "-seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Repro{}, fmt.Errorf("forensics: bad repro seed %q: %v", val, err)
			}
			out.Seed = n
		default:
			return Repro{}, fmt.Errorf("forensics: unexpected repro flag %q", fields[i])
		}
	}
	if out.App == "" || out.Tests == "" || out.Params == "" {
		return Repro{}, fmt.Errorf("forensics: incomplete repro command: %q", cmd)
	}
	return out, nil
}
