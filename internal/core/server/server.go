// Package server is ZebraConf's campaign-as-a-service daemon: the
// coordinator lifted out of the one-shot CLI into a long-running
// process. Workers connect over TCP through the dist gateway
// (`zebraconf -worker -connect`), campaigns arrive over a small REST
// API (`zebraconf -mode submit|watch|cancel -server URL`), run one at a
// time off a FIFO queue, and every canonically-seeded execution flows
// through a persistent cross-campaign disk cache — so a repeat campaign
// on an unchanged app is nearly free. This is the paper's batch
// campaign recast as the continuous configuration-testing service its
// own pitch calls for: catching hetero-unsafe parameters before every
// rolling deployment means running on every revision, not once.
//
// Per-campaign isolation: each submission gets its own ID, base seed,
// checkpoint journal, observer (status tracker + registry), ledger
// record, and result file under the server's state directory. The only
// shared mutable state is deliberately shared: the duration profile
// (every campaign sharpens the next schedule) and the disk cache
// (reuse is the point — and a hit can only replay a byte-identical
// execution, so isolation of *outcomes* is preserved by construction).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/report"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/obs"
)

// Campaign states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// ErrNotFound marks an unknown campaign ID.
var ErrNotFound = errors.New("server: no such campaign")

// Options configures a Server.
type Options struct {
	// Addr is the REST API listen address (e.g. ":8080").
	Addr string
	// WorkerAddr is the TCP worker gateway listen address (e.g. ":9090").
	WorkerAddr string
	// Token guards both the worker gateway handshake and the /api/*
	// endpoints (Authorization: Bearer). Empty disables auth — loopback
	// testing only.
	Token string
	// StateDir holds everything persistent: the disk cache, the run
	// ledger, the shared duration profile, and per-campaign journals and
	// results.
	StateDir string
	// CacheMaxBytes caps the disk cache (0 = diskcache default).
	CacheMaxBytes int64
	// Resolve maps an application name to its App — injected so this
	// package never depends on the application registry.
	Resolve func(string) (*harness.App, error)
	// Obs receives server-level metrics: gateway, disk cache, queue.
	// Per-campaign observers are created internally. May be nil.
	Obs *obs.Observer
	// Logw receives server lifecycle lines. May be nil.
	Logw io.Writer
}

// Server is the campaign service: gateway + queue + disk cache + API.
type Server struct {
	opts    Options
	gw      *dist.Gateway
	store   *diskcache.Store
	profile *sched.Profile
	started time.Time

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // submission order, for listing
	queue     []*Campaign
	seq       int
	closed    bool
	wake      chan struct{}

	wg       sync.WaitGroup
	shutdown func() // HTTP server shutdown, set by Serve
}

// Campaign is one submission's full lifecycle.
type Campaign struct {
	mu        sync.Mutex
	id        string
	req       SubmitRequest
	state     string
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	o         *obs.Observer
	coord     *dist.Coordinator // set while the campaign runs; for Abort
	cancelled bool
	res       *campaign.Result
	runID     string
	// slots is the run's parallel execution budget (workers x per-worker
	// parallelism), recorded for the perf summary's utilization.
	slots int
}

// New assembles a Server: state directory, disk cache, gateway, shared
// profile. The REST listener starts in Serve.
func New(opts Options) (*Server, error) {
	if opts.Resolve == nil {
		return nil, errors.New("server: Options.Resolve is required")
	}
	if opts.StateDir == "" {
		opts.StateDir = "zebraconf-state"
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	store, err := diskcache.Open(filepath.Join(opts.StateDir, "cache"), opts.CacheMaxBytes, nil, opts.Obs)
	if err != nil {
		return nil, err
	}
	profile, err := sched.LoadProfile(filepath.Join(opts.StateDir, "profile.json"))
	if err != nil {
		return nil, err
	}
	gw, err := dist.ListenGateway(opts.WorkerAddr, opts.Token, opts.Obs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:      opts,
		gw:        gw,
		store:     store,
		profile:   profile,
		started:   time.Now(),
		campaigns: make(map[string]*Campaign),
		wake:      make(chan struct{}, 1),
	}
	s.wg.Add(1)
	go s.runLoop()
	s.logf("worker gateway on %s, state in %s", gw.Addr(), opts.StateDir)
	return s, nil
}

// WorkerAddr is the gateway's bound address (useful with ":0").
func (s *Server) WorkerAddr() string { return s.gw.Addr() }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logw != nil {
		fmt.Fprintf(s.opts.Logw, "[zebraconf serve] "+format+"\n", args...)
	}
}

// Submit validates and enqueues one campaign, returning its ID.
func (s *Server) Submit(req SubmitRequest) (string, error) {
	if _, err := s.opts.Resolve(req.App); err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	if req.Workers < 0 || req.Workers > 64 {
		return "", fmt.Errorf("server: workers out of range: %d", req.Workers)
	}
	c := &Campaign{
		req:       req,
		state:     StateQueued,
		submitted: time.Now(),
		o:         obs.New(),
	}
	c.o.Status = obs.NewStatus()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("server: shutting down")
	}
	s.seq++
	c.id = fmt.Sprintf("c%04d", s.seq)
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.queue = append(s.queue, c)
	depth := len(s.queue)
	s.mu.Unlock()
	s.opts.Obs.GaugeSet(obs.MServerQueueDepth, int64(depth))
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.logf("campaign %s queued: app=%s workers=%d seed=%d", c.id, req.App, req.EffectiveWorkers(), req.Seed)
	return c.id, nil
}

// Cancel cancels a campaign: a queued one is marked cancelled in place,
// a running one has its coordinator aborted (inflight items are
// abandoned; already-finished pre-runs are not undone). Returns the
// resulting state.
func (s *Server) Cancel(id string) (string, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return "", ErrNotFound
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateQueued:
		c.state = StateCancelled
		c.finished = time.Now()
		s.opts.Obs.CounterAdd(obs.MServerCampaigns, 1, "state", StateCancelled)
		s.logf("campaign %s cancelled while queued", c.id)
	case StateRunning:
		c.cancelled = true
		if c.coord != nil {
			c.coord.Abort()
		}
		s.logf("campaign %s cancel requested; aborting coordinator", c.id)
	}
	return c.state, nil
}

// Close shuts the service down: refuse new submissions, abort the
// running campaign, close the gateway and wait for the run loop.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	running := make([]*Campaign, 0, 1)
	for _, c := range s.campaigns {
		running = append(running, c)
	}
	s.mu.Unlock()
	for _, c := range running {
		c.mu.Lock()
		if c.state == StateRunning {
			c.cancelled = true
			if c.coord != nil {
				c.coord.Abort()
			}
		}
		c.mu.Unlock()
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.gw.Close()
	if s.shutdown != nil {
		s.shutdown()
	}
	s.wg.Wait()
}

// runLoop executes queued campaigns one at a time, FIFO. One at a time
// is a deliberate isolation choice, not a throughput bug: concurrent
// campaigns would share the worker pool and perturb each other's
// timing-sensitive verdicts, and the equivalence invariant (served ≡
// local reported set) holds because a served campaign sees the same
// load shape a local run does.
func (s *Server) runLoop() {
	defer s.wg.Done()
	for {
		c := s.nextQueued()
		if c == nil {
			return
		}
		s.runCampaign(c)
	}
}

func (s *Server) nextQueued() *Campaign {
	for {
		s.mu.Lock()
		for len(s.queue) > 0 {
			c := s.queue[0]
			s.queue = s.queue[1:]
			c.mu.Lock()
			st := c.state
			c.mu.Unlock()
			if st != StateQueued {
				continue // cancelled while waiting
			}
			depth := len(s.queue)
			s.mu.Unlock()
			s.opts.Obs.GaugeSet(obs.MServerQueueDepth, int64(depth))
			return c
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil
		}
		<-s.wake
	}
}

// runCampaign executes one submission end to end, mirroring the CLI's
// `-mode run -workers N` path: same defaults, same config plumbing,
// same streaming/LPT/speculation/quarantine machinery — the five-app
// equivalence invariant extends to served campaigns precisely because
// this function introduces no execution-affecting difference.
func (s *Server) runCampaign(c *Campaign) {
	req := c.req
	app, err := s.opts.Resolve(req.App)
	if err != nil {
		s.finish(c, nil, err)
		return
	}
	c.mu.Lock()
	c.state = StateRunning
	c.started = time.Now()
	cancelled := c.cancelled
	c.mu.Unlock()
	if cancelled {
		s.finish(c, nil, nil)
		return
	}
	s.logf("campaign %s running: app=%s", c.id, req.App)

	dir := filepath.Join(s.opts.StateDir, "campaigns", c.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.finish(c, nil, err)
		return
	}

	policy, err := sched.ParsePolicy(req.EffectiveSched())
	if err != nil {
		s.finish(c, nil, err)
		return
	}
	seqMode, err := stats.ParseSeqMode(req.EffectiveSeq())
	if err != nil {
		s.finish(c, nil, err)
		return
	}
	quarThreshold := req.EffectiveQuarantine()
	if quarThreshold <= 0 {
		quarThreshold = math.MaxInt32
	}
	execCache := req.EffectiveExecCache()
	copts := campaign.Options{
		Parallelism:         req.Parallel,
		MaxPool:             req.MaxPool,
		DisablePooling:      req.NoPool,
		DisableGate:         req.NoGate,
		DisableExecCache:    !execCache,
		Params:              req.Params,
		Tests:               req.Tests,
		Seed:                req.Seed,
		Seq:                 seqMode,
		SeqMargin:           req.EffectiveSeqMargin(),
		SchedPolicy:         policy,
		Stream:              req.EffectiveStream(),
		Profile:             s.profile,
		QuarantineThreshold: quarThreshold,
		EvidenceMax:         req.EffectiveEvidenceMax(),
		SelectCoverage:      req.EffectiveSelect() == "coverage",
		Obs:                 c.o,
	}
	// Coverage-driven selection reads the server ledger's index exactly
	// as the CLI reads a -ledger directory's: the environment key is the
	// request's flags digest, so a submitted campaign only trusts entries
	// recorded under matching execution-affecting settings.
	ledgerDir := filepath.Join(s.opts.StateDir, "ledger")
	copts.CoverageKey = ledger.DigestFlags(req.ExecFlags())
	prevIx, cerr := coverage.Load(ledgerDir, app.Name)
	if cerr != nil {
		s.logf("campaign %s: reading coverage index: %v", c.id, cerr)
	}
	copts.CoverageIndex = prevIx
	if execCache {
		// The campaign's in-process memo cache (pre-runs and any local
		// executions) reads and feeds the same persistent store the
		// coordinator serves to workers.
		copts.CacheBackend = s.store
	}

	workers := req.EffectiveWorkers()
	cfg := dist.ConfigFrom(copts)
	cfg.HeartbeatMS = req.EffectiveHeartbeatMS()
	cfg.Parallel = req.WorkerParallel
	if cfg.Parallel <= 0 {
		// Split the in-process concurrency budget across workers, exactly
		// as the CLI does, so served and local campaigns put the same
		// total load on the timing-sensitive tests.
		total := req.Parallel
		if total <= 0 {
			total = campaign.DefaultParallelism()
		}
		cfg.Parallel = (total + workers - 1) / workers
	}
	c.mu.Lock()
	c.slots = workers * cfg.Parallel
	c.mu.Unlock()
	// Every served campaign gets a ring-only perf sampler: the summary
	// lands in its ledger record and perf.json without clients asking.
	c.o.Sampler = obs.NewSampler(c.o, 0, nil, 0)
	c.o.Sampler.Start()
	coord := dist.New(dist.Options{
		App:                 app.Name,
		Workers:             workers,
		Sessions:            s.gw,
		SharedBackend:       s.store,
		Config:              cfg,
		CheckpointPath:      filepath.Join(dir, "journal.jsonl"),
		ItemTimeout:         req.EffectiveItemTimeout(),
		ItemRetries:         req.EffectiveItemRetries(),
		SchedPolicy:         policy,
		SpeculationFactor:   req.EffectiveSpeculate(),
		Profile:             s.profile,
		QuarantineThreshold: quarThreshold,
		Obs:                 c.o,
		Stderr:              s.opts.Logw,
	})
	// A cancel that arrived before this point found no coordinator to
	// abort; Abort before Begin makes the run halt as it opens.
	c.mu.Lock()
	c.coord = coord
	cancelled = c.cancelled
	c.mu.Unlock()
	if cancelled {
		coord.Abort()
	}
	copts.Distributor = coord

	res := campaign.Run(app, copts)
	c.o.Sampler.Stop()
	if run := coord.Run(); run != nil {
		res.WorkerStalls = run.Stalls()
	}
	if res.Coverage != nil {
		ix := coverage.Build(app.Name, req.Seed, copts.CoverageKey, res.Coverage, app.Schema())
		ix.Adopt(prevIx, res.DeselectedTests)
		if serr := coverage.Save(ledgerDir, ix); serr != nil {
			s.logf("campaign %s: writing coverage index: %v", c.id, serr)
		}
	}
	if err := s.profile.Save(filepath.Join(s.opts.StateDir, "profile.json")); err != nil {
		s.logf("campaign %s: saving duration profile: %v", c.id, err)
	}
	if f, err := os.Create(filepath.Join(dir, "result.json")); err == nil {
		if werr := report.JSON(f, []*campaign.Result{res}); werr != nil {
			s.logf("campaign %s: writing result.json: %v", c.id, werr)
		}
		f.Close()
	}
	s.finish(c, res, coord.Err())
}

// finish settles a campaign's terminal state and, for completed runs,
// appends its ledger record so `-mode diff` can compare submitted runs.
func (s *Server) finish(c *Campaign, res *campaign.Result, err error) {
	c.mu.Lock()
	state := StateDone
	switch {
	case c.cancelled || c.state == StateCancelled:
		state = StateCancelled
	case err != nil:
		state = StateFailed
	}
	started := c.started
	slots := c.slots
	c.mu.Unlock()
	c.o.Sampler.Stop() // no-op when the run never started sampling

	runID := ""
	if state == StateDone && res != nil {
		rec := ledger.Summarize(res, c.req.Seed, started, c.req.EffectiveWorkers(), c.req.ExecFlags())
		rec.Perf = obs.SummarizePerf(c.o, res.App, res.Elapsed.Seconds(), slots)
		if rec.Perf != nil {
			// Persist the summary beside the campaign's journal and result
			// so one submission's whole story lives in its directory.
			path := filepath.Join(s.opts.StateDir, "campaigns", c.id, "perf.json")
			if b, jerr := json.MarshalIndent(rec.Perf, "", "  "); jerr == nil {
				if werr := os.WriteFile(path, b, 0o644); werr != nil {
					s.logf("campaign %s: writing perf.json: %v", c.id, werr)
				}
			}
		}
		if lerr := ledger.Append(filepath.Join(s.opts.StateDir, "ledger"), rec); lerr != nil {
			s.logf("campaign %s: writing ledger: %v", c.id, lerr)
		} else {
			runID = rec.RunID
		}
	}
	// Publish the terminal state last, together with the ledger run ID: a
	// client that polls for "done" must find the whole record.
	c.mu.Lock()
	c.res = res
	c.finished = time.Now()
	c.coord = nil
	c.state = state
	if state == StateFailed {
		c.errMsg = err.Error()
	}
	c.runID = runID
	c.mu.Unlock()
	s.opts.Obs.CounterAdd(obs.MServerCampaigns, 1, "state", state)
	if err != nil {
		s.logf("campaign %s finished: %s (%v)", c.id, state, err)
	} else {
		s.logf("campaign %s finished: %s", c.id, state)
	}
}

// defaultEvidenceMax mirrors the CLI's -evidence-max default so served
// and local runs produce identical flags digests.
var defaultEvidenceMax = forensics.DefaultBudget
