// Package launch is the one place a campaign's settings are written down
// and the one place they are turned into a finished, recorded campaign.
// Spec is the policy: the CLI binds its flags onto one and the ledger
// digests it. Campaign is the launch sequence every campaign mode calls.
package launch

import (
	"flag"
	"fmt"
	"strings"

	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
)

// Spec is a campaign's policy. Every field is a CLI flag (Bind) and every
// default lives in DefaultSpec, so a zero here always means zero, never
// "unset". README "Campaign flags" tabulates flag, default and digest
// membership.
type Spec struct {
	App         string
	Params      List
	Tests       List
	Seed        int64
	Workers     int
	Parallel    int
	MaxPool     int
	NoPool      bool
	NoGate      bool
	ExecCache   bool
	ThreadOnly  bool
	Sched       string
	Seq         string
	SeqMargin   float64
	Quarantine  int
	EvidenceMax int64
	Select      string
	Overrides   string
}

// DefaultSpec is the campaign every flag left alone describes.
func DefaultSpec() Spec {
	return Spec{
		App:         "all",
		ExecCache:   true,
		Sched:       "lpt",
		Seq:         "sprt",
		SeqMargin:   runner.DefaultSeqMargin,
		Quarantine:  3,
		EvidenceMax: forensics.DefaultBudget,
		Select:      "coverage",
	}
}

// Bind registers one flag per field on fs, defaults taken from s.
func (s *Spec) Bind(fs *flag.FlagSet) {
	fs.StringVar(&s.App, "app", s.App, "application name or 'all'")
	fs.Var(&s.Params, "params", "comma-separated parameter subset")
	fs.Var(&s.Tests, "tests", "comma-separated test subset")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "base seed mixed into every trial seed (reproducible campaigns)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "shard the campaign across N worker subprocesses (0 = in-process)")
	fs.IntVar(&s.Parallel, "parallel", s.Parallel, "concurrent unit tests (0 = GOMAXPROCS)")
	fs.IntVar(&s.MaxPool, "max-pool", s.MaxPool, "max parameters per pool (0 = unbounded)")
	fs.BoolVar(&s.NoPool, "no-pool", s.NoPool, "disable pooled testing (ablation)")
	fs.BoolVar(&s.NoGate, "no-gate", s.NoGate, "disable first-trial gating (ablation)")
	fs.BoolVar(&s.ExecCache, "exec-cache", s.ExecCache, "memoize identical unit-test executions (canonically-seeded homogeneous arms and pooled runs); -exec-cache=false re-runs everything (ablation)")
	fs.BoolVar(&s.ThreadOnly, "thread-only", s.ThreadOnly, "use thread-based read attribution (the paper's failed attempt #3)")
	fs.StringVar(&s.Sched, "sched", s.Sched, "phase-2 dispatch order: lpt (longest-predicted first) | fifo (ablation)")
	fs.StringVar(&s.Seq, "seq", s.Seq, "sequential confirmation mode: sprt (SPRT convict/futility boundaries) | gsf (group-sequential Fisher, alpha-spending) | fixed (full-round ablation)")
	fs.Float64Var(&s.SeqMargin, "seq-margin", s.SeqMargin, "budget reallocation: parameters ending within this factor x significance receive extension rounds funded by early stops; 0 disables")
	fs.IntVar(&s.Quarantine, "quarantine", s.Quarantine, "distinct confirming tests before a parameter is live-quarantined mid-campaign (§4 frequent-failer rule); 0 disables the pruning (ablation)")
	fs.Int64Var(&s.EvidenceMax, "evidence-max", s.EvidenceMax, "campaign-wide evidence byte budget (per worker with -workers): records degrade to verdict-only past it; 0 disables forensic capture, negative is unlimited")
	fs.StringVar(&s.Select, "select", s.Select, "phase-2 test selection: coverage (skip tests whose indexed read set is disjoint from the campaign's params; needs a warm -ledger index) | all (dispatch to every test; ablation)")
	fs.StringVar(&s.Overrides, "override", s.Overrides, "comma-separated param=value schema default overrides (simulates a changed seeded default; drives -mode rerun invalidation)")
}

// notInDigest names the flags ExecFlags leaves out: -app (a ledger record
// carries it) and -override (an override changes the per-parameter schema
// digests instead, so rerun invalidation names the drifted parameter
// rather than the whole environment).
var notInDigest = map[string]bool{"app": true, "override": true}

// ExecFlags renders the execution-affecting settings as the flag map the
// ledger digests — every flag Bind registers but those in notInDigest, so
// a new setting is in the digest unless it is argued out of it. Two runs
// differing purely in instrumentation diff clean, and a run with -workers
// compares equal to the same flags run in process. The digest is also the
// coverage environment key: an index entry is replayed or trusted for
// selection only under the settings that recorded it.
func (s Spec) ExecFlags() map[string]string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	s.Bind(fs)
	flags := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		if !notInDigest[f.Name] {
			flags[f.Name] = f.Value.String()
		}
	})
	return flags
}

// Digest is the ledger flags digest and coverage environment key.
func (s Spec) Digest() string { return ledger.DigestFlags(s.ExecFlags()) }

// parsed is the form of the four string-typed settings the engine takes.
type parsed struct {
	policy    sched.Policy
	seq       stats.SeqMode
	overrides map[string]string
}

func (s Spec) parse() (p parsed, err error) {
	if p.policy, err = sched.ParsePolicy(s.Sched); err != nil {
		return p, err
	}
	if p.seq, err = stats.ParseSeqMode(s.Seq); err != nil {
		return p, err
	}
	if s.Select != "coverage" && s.Select != "all" {
		return p, fmt.Errorf("bad -select %q (want coverage or all)", s.Select)
	}
	p.overrides = make(map[string]string)
	if s.Overrides == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s.Overrides, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if k = strings.TrimSpace(k); !ok || k == "" {
			return p, fmt.Errorf("bad -override entry %q (want param=value)", kv)
		}
		p.overrides[k] = v
	}
	return p, nil
}

// Validate rejects a Spec the launcher could not run.
func (s Spec) Validate() error {
	_, err := s.parse()
	return err
}

// List is a string list whose flag form is comma-separated.
type List []string

func (l List) String() string { return strings.Join(l, ",") }

// Set replaces the list with the trimmed, non-empty parts of v.
func (l *List) Set(v string) error {
	*l = nil
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*l = append(*l, part)
		}
	}
	return nil
}
