package launch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os/exec"
	"time"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/obs"
)

// Env is where a campaign runs, as opposed to what it runs (Spec): worker
// processes, caches, outputs and the files that outlive one campaign.
// Nothing here may change a verdict.
type Env struct {
	// WorkerCmd builds one stdio worker subprocess; it is needed when
	// Spec.Workers > 0.
	WorkerCmd func() *exec.Cmd
	// Cache is the open persistent execution cache, nil for none. It backs
	// the in-process memo cache only: a worker's disk tier comes from its
	// own -disk-cache flag (WorkerCmd passes it).
	Cache *diskcache.Store
	// Obs observes the campaign; nil disables observability.
	Obs *obs.Observer
	// Stderr receives worker stderr. May be nil.
	Stderr io.Writer
	// LedgerDir, when set, is read for the previous run's coverage index
	// (and, by a rerun, its item store) and receives this run's, plus its
	// ledger record.
	LedgerDir string
	// ProfilePath, when set, is the duration profile read for predictions
	// and rewritten with this campaign's timings, so every run sharpens
	// the next one's schedule.
	ProfilePath string
	// CheckpointPath journals completed work items. Only the coordinator
	// of Spec.Workers > 0 writes the journal, so a campaign given one
	// without workers is refused before anything executes.
	CheckpointPath string
	// ResumePath and Rerun are the two sources of campaign.Options.Stored,
	// the results that stand in for executing their tests, in process and
	// with workers alike (a journal's wins over the item store's).
	// ResumePath names a checkpoint journal, possibly CheckpointPath, whose
	// completed items are not executed again. Rerun, when non-nil, makes
	// this an incremental rerun against LedgerDir: tests whose digested
	// inputs are unchanged take their result from the item store. It is
	// called once before anything executes, with the partition — or with
	// nil when the directory is cold and the full campaign runs instead.
	ResumePath string
	Rerun      func(*campaign.RerunPlan)
}

// Outcome is a launched campaign's result and what was recorded of it.
type Outcome struct {
	Result *campaign.Result
	// Record is the ledger record appended to Env.LedgerDir, nil when
	// there is no ledger or the append failed.
	Record *ledger.Record
	// SaveErr joins the failures to persist the coverage index, item
	// store, ledger record or duration profile. The Result stands.
	SaveErr error
}

// prepared is one campaign made ready to run: everything derived from
// (spec, env) before the first execution.
type prepared struct {
	opts  campaign.Options
	dopts dist.Options      // zero unless spec.Workers > 0
	coord *dist.Coordinator // nil in process
	// slots is the parallel execution budget, the denominator of the perf
	// summary's utilization.
	slots  int
	prevIx *coverage.Index
	// prevItems is the previous run's item store (9.96 MB for a whole
	// minihdfs campaign) once something needs it: a rerun, or saveCoverage
	// with records to carry forward.
	prevItems *coverage.ItemStore
	plan      *campaign.RerunPlan // nil unless a rerun against a warm LedgerDir
}

func prepare(app *harness.App, spec Spec, env Env) (*prepared, error) {
	if env.CheckpointPath != "" && spec.Workers <= 0 {
		return nil, errors.New("-checkpoint needs -workers: an in-process campaign writes no journal (-resume reads one either way)")
	}
	p, err := spec.parse()
	if err != nil {
		return nil, err
	}
	profile, err := sched.LoadProfile(env.ProfilePath)
	if err != nil {
		return nil, err
	}
	// Live quarantine prunes by completion order, so 0 — a threshold no
	// campaign reaches — is what makes two schedules byte-comparable.
	quarantine := spec.Quarantine
	if quarantine <= 0 {
		quarantine = math.MaxInt32
	}
	l := &prepared{slots: spec.Parallel}
	if l.slots <= 0 {
		l.slots = campaign.DefaultParallelism()
	}
	l.opts = campaign.Options{
		Parallelism:         spec.Parallel,
		MaxPool:             spec.MaxPool,
		DisablePooling:      spec.NoPool,
		DisableGate:         spec.NoGate,
		DisableExecCache:    !spec.ExecCache,
		Params:              spec.Params,
		Tests:               spec.Tests,
		Seed:                spec.Seed,
		Seq:                 p.seq,
		SchedPolicy:         p.policy,
		Profile:             profile,
		QuarantineThreshold: quarantine,
		EvidenceMax:         spec.EvidenceMax,
		SelectCoverage:      spec.Select == "coverage",
		CoverageKey:         spec.Digest(),
		Overrides:           p.overrides,
		Obs:                 env.Obs,
	}
	if spec.ThreadOnly {
		l.opts.Strategy = agent.StrategyThreadOnly
	}
	if env.Cache != nil && spec.ExecCache {
		l.opts.CacheBackend = env.Cache
	}
	if env.LedgerDir != "" {
		// Optional: a cold directory just means a full run that seeds it.
		if l.prevIx, err = coverage.Load(env.LedgerDir, app.Name); err != nil {
			return nil, fmt.Errorf("reading coverage index: %w", err)
		}
		l.opts.CoverageIndex = l.prevIx
	}
	l.opts.Stored = make(map[string]campaign.ItemResult)
	if env.Rerun != nil {
		if l.prevItems, err = coverage.LoadItems(env.LedgerDir, app.Name); err != nil {
			return nil, fmt.Errorf("reading coverage item store: %w", err)
		}
		if l.prevIx != nil && l.prevItems != nil {
			plan := campaign.PlanRerun(app, l.opts, l.prevIx, l.prevItems)
			l.plan, l.opts.Stored = &plan, plan.Stored
		}
	}
	if env.ResumePath != "" {
		done, err := ReadResume(env.ResumePath, app.Name, spec.Seed)
		if err != nil {
			return nil, err
		}
		maps.Copy(l.opts.Stored, done)
	}
	if spec.Workers <= 0 {
		return l, nil
	}

	cfg := dist.ConfigFrom(l.opts)
	// With the coordinator tracing, workers trace each item too; the
	// coordinator stitches their fragments under its own item spans.
	cfg.TraceItems = env.Obs != nil && env.Obs.Tracer != nil
	// Split the in-process budget across the workers: total load stays
	// the same however many workers shard the campaign.
	cfg.Parallel = (l.slots + spec.Workers - 1) / spec.Workers
	l.slots = spec.Workers * cfg.Parallel
	l.dopts = dist.Options{
		App:                 app.Name,
		Workers:             spec.Workers,
		WorkerCmd:           env.WorkerCmd,
		Config:              cfg,
		CheckpointPath:      env.CheckpointPath,
		ItemRetries:         dist.DefaultItemRetries,
		SchedPolicy:         p.policy,
		Profile:             profile,
		QuarantineThreshold: quarantine,
		Obs:                 env.Obs,
		Stderr:              env.Stderr,
	}
	l.coord = dist.New(l.dopts)
	l.opts.Distributor = l.coord
	return l, nil
}

// Campaign runs one campaign of spec over app in env and records it:
// the one sequence behind `-mode run|explain|rerun`, in process or with
// -workers. A failed campaign returns an error and records nothing.
func Campaign(app *harness.App, spec Spec, env Env) (*Outcome, error) {
	l, err := prepare(app, spec, env)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if env.Rerun != nil {
		env.Rerun(l.plan)
	}
	res := campaign.Run(app, l.opts)
	if l.coord != nil {
		// The campaign cannot produce a result without the distributed
		// items, so a coordinator failure is fatal.
		if err := l.coord.Err(); err != nil {
			return nil, fmt.Errorf("distributed campaign failed: %w", err)
		}
	}

	out := &Outcome{Result: res}
	var errs []error
	if env.LedgerDir != "" {
		if err := l.saveCoverage(env.LedgerDir, app, res); err != nil {
			errs = append(errs, err)
		}
		rec := ledger.Summarize(res, spec.Seed, start, spec.Workers, spec.ExecFlags())
		rec.Perf = obs.SummarizePerf(env.Obs, res.App, res.Elapsed.Seconds(), l.slots)
		if l.plan != nil {
			rec.ChangedTests = len(l.plan.Changed)
			rec.ReplayedTests = len(l.plan.Replayed)
		}
		if err := ledger.Append(env.LedgerDir, rec); err != nil {
			errs = append(errs, fmt.Errorf("writing run ledger: %w", err))
		} else {
			out.Record = &rec
		}
	}
	if env.ProfilePath != "" {
		if err := l.opts.Profile.Save(env.ProfilePath); err != nil {
			errs = append(errs, fmt.Errorf("writing duration profile: %w", err))
		}
	}
	out.SaveErr = errors.Join(errs...)
	return out, nil
}

// ReadResume reads the completed items of the checkpoint journal at path as
// campaign.Options.Stored takes them, keyed by test name — the last record
// of a test wins, and records of tests the resuming campaign does not
// select are simply never looked up. The journal must be one of app at
// seed: executions are seeded, so another seed's results are another
// campaign's. Item numbering and the test list are free to differ.
func ReadResume(path, app string, seed int64) (map[string]campaign.ItemResult, error) {
	recs, err := dist.ReadJournal(path)
	if err != nil {
		return nil, err
	}
	done := make(map[string]campaign.ItemResult)
	headers := 0
	for _, rec := range recs {
		switch rec.Kind {
		case dist.KindHeader:
			headers++
			if rec.App != app || rec.Seed != seed {
				return nil, fmt.Errorf("checkpoint %s is for app=%s seed=%d, not app=%s seed=%d",
					path, rec.App, rec.Seed, app, seed)
			}
		case dist.KindDone:
			if rec.Result != nil {
				done[rec.Test] = *rec.Result
			}
		}
	}
	if headers == 0 {
		return nil, fmt.Errorf("checkpoint %s has no header record", path)
	}
	return done, nil
}

// saveCoverage persists the campaign's read-coverage index and replayable
// item store into the ledger directory, folding in whatever of the
// previous run still stands: entries for deselected tests (which ran
// nothing this time, so only the prior entry knows their reads) and for
// replayed tests (whose prior entry is by construction still valid, and
// replaces this run's, which knows a pre-run's reads only). Without the
// Adopt step a warm selection run would drop the very entries it selected
// on, and the next run would oscillate back to full dispatch.
func (l *prepared) saveCoverage(dir string, app *harness.App, res *campaign.Result) error {
	if res.Coverage == nil {
		return nil
	}
	schema := campaign.OverrideApp(app, l.opts.Overrides).Schema()
	ix := coverage.Build(app.Name, l.opts.Seed, l.opts.CoverageKey, res.Coverage, schema)
	carry := append([]string(nil), res.DeselectedTests...)
	st := &coverage.ItemStore{App: app.Name, Items: make(map[string]json.RawMessage)}
	// Every record is encoded into one growing buffer, and keeps its part.
	var recs []byte
	for _, it := range res.Items {
		if it.Replayed {
			// The raw record it came from is the source of truth.
			carry = append(carry, it.Test)
			delete(ix.Tests, it.Test)
		} else if b, err := canonjson.Append(recs, &it); err == nil {
			st.Items[it.Test] = b[len(recs):len(b):len(b)]
			recs = b
		}
	}
	ix.Adopt(l.prevIx, carry)
	if len(carry) > 0 && l.prevItems == nil {
		var err error
		if l.prevItems, err = coverage.LoadItems(dir, app.Name); err != nil {
			return fmt.Errorf("reading coverage item store: %w", err)
		}
	}
	if l.prevItems != nil {
		for _, t := range carry {
			if raw, ok := l.prevItems.Items[t]; ok && st.Items[t] == nil {
				st.Items[t] = raw
			}
		}
	}

	if err := coverage.Save(dir, ix); err != nil {
		return fmt.Errorf("writing coverage index: %w", err)
	}
	if err := coverage.SaveItems(dir, st); err != nil {
		return fmt.Errorf("writing coverage item store: %w", err)
	}
	return nil
}
