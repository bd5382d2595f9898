// Package ledger is ZebraConf's persistent run record: every campaign
// appends one summary line to a JSONL ledger file, and Diff compares two
// records — the tooling behind `zebraconf -mode diff`. The ledger makes
// the five-app equivalence invariant a first-class artifact: the reported
// parameter set travels as a sorted list plus a digest, so "did this
// change alter any report?" is a single digest comparison across runs,
// machines, and flag ablations.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/obs"
)

// FileName is the ledger file inside a -ledger directory.
const FileName = "ledger.jsonl"

// Record is one campaign's ledger entry.
type Record struct {
	// RunID identifies the run: a short fnv-1a hash of app, seed, start
	// time, and pid — unique enough to name runs in -diff-runs while
	// staying human-quotable.
	RunID string `json:"run_id"`
	// Start is the campaign's wall-clock start, RFC3339.
	Start string `json:"start"`
	App   string `json:"app"`
	Seed  int64  `json:"seed"`
	// Flags holds the execution-affecting flag settings the run was
	// invoked with; FlagsDigest is a sha256 over the sorted k=v pairs.
	// Observability-only flags (trace, metrics, events, http, ledger…)
	// are excluded — they cannot change the outcome, and diffing two
	// runs that differ only in instrumentation must come out clean.
	Flags       map[string]string `json:"flags,omitempty"`
	FlagsDigest string            `json:"flags_digest"`
	// Reported is the sorted reported-parameter set; ReportedDigest is
	// a sha256 over the sorted param\x00truth lines, the byte-identity
	// the equivalence invariant pins.
	Reported       []string `json:"reported"`
	ReportedDigest string   `json:"reported_digest"`

	Tests            int     `json:"tests"`
	Params           int     `json:"params"`
	TruePositives    int     `json:"true_positives"`
	FalsePositives   int     `json:"false_positives"`
	Missed           int     `json:"missed"`
	Executions       int64   `json:"executions"`
	ExecutionsSaved  int64   `json:"executions_saved"`
	MakespanSeconds  float64 `json:"makespan_seconds"`
	Workers          int     `json:"workers,omitempty"`
	SkippedTests     int     `json:"skipped_tests,omitempty"`
	QuarantinedItems int     `json:"quarantined_items,omitempty"`
	// EvidenceRecords counts reported parameters carrying a forensic
	// evidence record; EvidenceBytes is their serialized volume — the
	// evidence budget statistics of this run's report.
	EvidenceRecords int   `json:"evidence_records,omitempty"`
	EvidenceBytes   int64 `json:"evidence_bytes,omitempty"`
	// Coverage-selection and incremental-rerun accounting.
	// DeselectedTests counts tests coverage-driven selection skipped;
	// ChangedTests / ReplayedTests partition a -mode rerun (both zero
	// for a normal run). Deltas over these fields are advisory, like
	// executions: the equivalence invariant pins only the reported set.
	DeselectedTests int `json:"deselected_tests,omitempty"`
	ChangedTests    int `json:"changed_tests,omitempty"`
	ReplayedTests   int `json:"replayed_tests,omitempty"`
	// Perf is the run's performance summary (nil for records written
	// before the observatory existed, or for unobserved runs — readers
	// treat nil as "no perf data", never as an error). Callers fill it
	// after Summarize since it derives from the observer, not the result.
	Perf *obs.PerfSummary `json:"perf,omitempty"`
}

// Summarize condenses one finished campaign into a Record: the sorted
// reported set with its digest, the execution-affecting flags with
// theirs, and the run's counters. launch.Campaign calls it for every
// -ledger run, in process or with -workers, so any two records are
// directly diffable.
func Summarize(res *campaign.Result, seed int64, start time.Time, workers int, flags map[string]string) Record {
	names := make([]string, 0, len(res.Reported))
	lines := make([]string, 0, len(res.Reported))
	var evRecords int
	var evBytes int64
	// Evidence is measured by its JSON's length, each record encoded into
	// the one buffer.
	var buf []byte
	for _, p := range res.Reported {
		names = append(names, p.Param)
		lines = append(lines, p.Param+"\x00"+p.Truth.String())
		if p.Evidence != nil {
			evRecords++
			if b, err := canonjson.Append(buf[:0], p.Evidence); err == nil {
				evBytes += int64(len(b))
				buf = b
			}
		}
	}
	sort.Strings(names)
	return Record{
		RunID:            NewRunID(res.App, seed, start, os.Getpid()),
		Start:            start.UTC().Format(time.RFC3339),
		App:              res.App,
		Seed:             seed,
		Flags:            flags,
		FlagsDigest:      DigestFlags(flags),
		Reported:         names,
		ReportedDigest:   DigestReported(lines),
		Tests:            res.NumTests,
		Params:           res.NumParams,
		TruePositives:    res.TruePositives,
		FalsePositives:   res.FalsePositives,
		Missed:           len(res.Missed),
		Executions:       res.Counts.Executed,
		ExecutionsSaved:  res.Counts.ExecutionsSaved,
		MakespanSeconds:  res.Elapsed.Seconds(),
		Workers:          workers,
		SkippedTests:     len(res.SkippedTests),
		QuarantinedItems: len(res.QuarantinedItems),
		EvidenceRecords:  evRecords,
		EvidenceBytes:    evBytes,
		DeselectedTests:  len(res.DeselectedTests),
	}
}

// NewRunID derives a record's RunID.
func NewRunID(app string, seed int64, start time.Time, pid int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", app, seed, start.UnixNano(), pid)
	return hex.EncodeToString(h.Sum(nil))
}

// DigestFlags computes the flags digest: sha256 over sorted k=v lines.
func DigestFlags(flags map[string]string) string {
	keys := make([]string, 0, len(flags))
	for k := range flags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, flags[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// DigestReported computes the reported-set digest over sorted
// param\x00truth lines. lines must already be in "param\x00truth" form;
// the helper sorts defensively so digest equality is order-independent.
func DigestReported(lines []string) string {
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, l := range sorted {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Append adds one record to dir's ledger file, creating the directory
// as needed. Appends are single O_APPEND writes of one JSON line, so
// concurrent campaigns interleave whole records.
func Append(dir string, rec Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// Read loads every record of dir's ledger, oldest first. A missing file
// is an empty ledger, not an error; corrupt lines are skipped (a ledger
// survives partial writes the way the checkpoint journal does).
func Read(dir string) ([]Record, error) {
	f, err := os.Open(filepath.Join(dir, FileName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			// Skip a corrupt tail by resyncing to the next line.
			return out, nil
		}
		if rec.RunID != "" {
			out = append(out, rec)
		}
	}
}

// PickPair selects the two records to diff: the app's two most recent
// by default, or the two named (by RunID or unique prefix) in runs as
// "a,b". The returned order is (older, newer) for the default; for
// explicit runs it is (first named, second named).
func PickPair(recs []Record, app, runs string) (a, b Record, err error) {
	if runs != "" {
		parts := strings.Split(runs, ",")
		if len(parts) != 2 {
			return a, b, fmt.Errorf("ledger: -diff-runs wants two comma-separated run IDs, got %q", runs)
		}
		find := func(prefix string) (Record, error) {
			prefix = strings.TrimSpace(prefix)
			if prefix == "" {
				return Record{}, fmt.Errorf("ledger: empty run ID in %q", runs)
			}
			var hits []Record
			for _, r := range recs {
				if strings.HasPrefix(r.RunID, prefix) && (app == "" || r.App == app) {
					hits = append(hits, r)
				}
			}
			switch len(hits) {
			case 0:
				return Record{}, fmt.Errorf("ledger: no record matches run ID %q", prefix)
			case 1:
				return hits[0], nil
			default:
				return Record{}, fmt.Errorf("ledger: run ID %q is ambiguous (%d matches)", prefix, len(hits))
			}
		}
		if a, err = find(parts[0]); err != nil {
			return a, b, err
		}
		b, err = find(parts[1])
		return a, b, err
	}
	var mine []Record
	for _, r := range recs {
		if app == "" || r.App == app {
			mine = append(mine, r)
		}
	}
	if len(mine) < 2 {
		return a, b, fmt.Errorf("ledger: need at least two records for app %q, have %d", app, len(mine))
	}
	return mine[len(mine)-2], mine[len(mine)-1], nil
}

// Delta is the comparison of two ledger records.
type Delta struct {
	A, B Record
	// AddedParams / RemovedParams are reported-set regressions: present
	// in B but not A, and vice versa.
	AddedParams   []string
	RemovedParams []string
	// FlagsMatch reports whether the execution-affecting flags were
	// identical (a mismatch makes a reported-set delta expected rather
	// than alarming).
	FlagsMatch bool
	// MakespanDelta is B minus A in seconds; MakespanRatio is B over A
	// (0 when A's makespan is 0).
	MakespanDelta   float64
	MakespanRatio   float64
	ExecutionsDelta int64
}

// Clean reports whether the reported parameter sets are identical —
// the equivalence invariant between the two runs.
func (d Delta) Clean() bool {
	return len(d.AddedParams) == 0 && len(d.RemovedParams) == 0 &&
		d.A.ReportedDigest == d.B.ReportedDigest
}

// Diff compares two records.
func Diff(a, b Record) Delta {
	d := Delta{
		A:               a,
		B:               b,
		FlagsMatch:      a.FlagsDigest == b.FlagsDigest,
		MakespanDelta:   b.MakespanSeconds - a.MakespanSeconds,
		ExecutionsDelta: b.Executions - a.Executions,
	}
	if a.MakespanSeconds > 0 {
		d.MakespanRatio = b.MakespanSeconds / a.MakespanSeconds
	}
	in := func(set []string, p string) bool {
		for _, q := range set {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, p := range b.Reported {
		if !in(a.Reported, p) {
			d.AddedParams = append(d.AddedParams, p)
		}
	}
	for _, p := range a.Reported {
		if !in(b.Reported, p) {
			d.RemovedParams = append(d.RemovedParams, p)
		}
	}
	sort.Strings(d.AddedParams)
	sort.Strings(d.RemovedParams)
	return d
}

// Render writes the human-readable diff report.
func (d Delta) Render(w io.Writer) {
	fmt.Fprintf(w, "ledger diff: %s (%s) vs %s (%s) · app %s\n",
		d.A.RunID, d.A.Start, d.B.RunID, d.B.Start, d.A.App)
	if d.FlagsMatch {
		fmt.Fprintf(w, "  flags:     identical (digest %s)\n", d.A.FlagsDigest)
	} else {
		fmt.Fprintf(w, "  flags:     DIFFER (%s vs %s) — outcome deltas may be intended\n",
			d.A.FlagsDigest, d.B.FlagsDigest)
		keys := map[string]bool{}
		for k := range d.A.Flags {
			keys[k] = true
		}
		for k := range d.B.Flags {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			if d.A.Flags[k] != d.B.Flags[k] {
				fmt.Fprintf(w, "    %s: %q -> %q\n", k, d.A.Flags[k], d.B.Flags[k])
			}
		}
	}
	if d.Clean() {
		fmt.Fprintf(w, "  reported:  identical — %d params (digest %s)\n",
			len(d.A.Reported), d.A.ReportedDigest)
	} else {
		fmt.Fprintf(w, "  reported:  DELTA — %d -> %d params (digest %s -> %s)\n",
			len(d.A.Reported), len(d.B.Reported), d.A.ReportedDigest, d.B.ReportedDigest)
		for _, p := range d.AddedParams {
			fmt.Fprintf(w, "    + %s\n", p)
		}
		for _, p := range d.RemovedParams {
			fmt.Fprintf(w, "    - %s\n", p)
		}
	}
	fmt.Fprintf(w, "  makespan:  %.1fs -> %.1fs (%+.1fs", d.A.MakespanSeconds, d.B.MakespanSeconds, d.MakespanDelta)
	if d.MakespanRatio > 0 {
		fmt.Fprintf(w, ", %.2fx", d.MakespanRatio)
	}
	fmt.Fprintf(w, ")\n")
	fmt.Fprintf(w, "  execs:     %d -> %d (%+d) · saved %d -> %d\n",
		d.A.Executions, d.B.Executions, d.ExecutionsDelta,
		d.A.ExecutionsSaved, d.B.ExecutionsSaved)
}
