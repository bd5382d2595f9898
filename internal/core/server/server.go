// Package server is ZebraConf's campaign-as-a-service daemon: the
// one-shot CLI campaign lifted into a long-running process. Campaigns
// arrive over a small REST API (`zebraconf -mode submit|watch|cancel
// -server URL`) and run one at a time off a FIFO queue, each exactly as
// `-mode run -workers N` runs it: launch.Campaign spawns the campaign's own
// stdio worker subprocesses (Options.WorkerCmd), and each worker opens the
// service's persistent disk cache from its own flags — so a repeat
// campaign on an unchanged app is nearly free. This is the paper's batch
// campaign recast as the continuous configuration-testing service its
// own pitch calls for: catching hetero-unsafe parameters before every
// rolling deployment means running on every revision, not once.
//
// Per-campaign isolation: each submission gets its own ID, base seed,
// workers, checkpoint journal, observer (status tracker + registry),
// ledger record, and result file under the server's state directory. The
// only shared mutable state is deliberately shared: the duration profile
// (every campaign sharpens the next schedule) and the disk cache (reuse
// is the point — and a hit can only replay a byte-identical execution,
// so isolation of *outcomes* is preserved by construction).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/launch"
	"zebraconf/internal/core/report"
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

// defaultWorkers is how many workers a submission that names none spawns:
// the smallest fleet that exercises the distributed paths.
const defaultWorkers = 2

// Options configures a Server.
type Options struct {
	// Addr is the REST API listen address (e.g. ":8080").
	Addr string
	// Token guards the /api/* endpoints (Authorization: Bearer). Empty
	// disables auth — loopback testing only.
	Token string
	// StateDir holds everything persistent: the disk cache, the run
	// ledger, the shared duration profile, and per-campaign journals and
	// results.
	StateDir string
	// WorkerCmd builds one stdio worker subprocess of a campaign, its disk
	// tier the cache under StateDir (the CLI passes `-worker -disk-cache
	// <state>/cache`). Called again for every spawn.
	WorkerCmd func() *exec.Cmd
	// Resolve maps an application name to its App — injected so this
	// package never depends on the application registry.
	Resolve func(string) (*harness.App, error)
	// Obs receives server-level metrics: queue depth and campaign states.
	// Per-campaign observers are created internally. May be nil.
	Obs *obs.Observer
	// Logw receives server lifecycle lines. May be nil.
	Logw io.Writer
}

// Server is the campaign service: queue + API.
type Server struct {
	opts    Options
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
	spec      launch.Spec
	state     string
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	o         *obs.Observer
	// ctx is cancelled by Cancel and Close; it aborts the running
	// campaign and marks its terminal state cancelled.
	ctx    context.Context
	cancel context.CancelFunc
	res    *campaign.Result
	runID  string
}

// New assembles a Server and its state directory. The REST listener
// starts in Serve.
func New(opts Options) (*Server, error) {
	if opts.Resolve == nil || opts.WorkerCmd == nil {
		return nil, errors.New("server: Options.Resolve and Options.WorkerCmd are required")
	}
	if opts.StateDir == "" {
		opts.StateDir = "zebraconf-state"
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		opts:      opts,
		started:   time.Now(),
		campaigns: make(map[string]*Campaign),
		wake:      make(chan struct{}, 1),
	}
	s.wg.Add(1)
	go s.runLoop()
	s.logf("state in %s", opts.StateDir)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logw != nil {
		fmt.Fprintf(s.opts.Logw, "[zebraconf serve] "+format+"\n", args...)
	}
}

// Submit validates and enqueues one campaign, returning its ID.
func (s *Server) Submit(spec launch.Spec) (string, error) {
	if _, err := s.opts.Resolve(spec.App); err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	if spec.Workers <= 0 {
		spec.Workers = defaultWorkers
	}
	if spec.Workers > 64 {
		return "", fmt.Errorf("server: workers out of range: %d", spec.Workers)
	}
	c := &Campaign{
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		o:         obs.New(),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
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
	s.logf("campaign %s queued: app=%s workers=%d seed=%d", c.id, spec.App, spec.Workers, spec.Seed)
	return c.id, nil
}

// Cancel cancels a campaign: a queued one is marked cancelled in place,
// a running one is aborted through its context (inflight items are
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
		c.cancel()
		c.state = StateCancelled
		c.finished = time.Now()
		s.opts.Obs.CounterAdd(obs.MServerCampaigns, 1, "state", StateCancelled)
		s.logf("campaign %s cancelled while queued", c.id)
	case StateRunning:
		c.cancel()
		s.logf("campaign %s cancel requested; aborting coordinator", c.id)
	}
	return c.state, nil
}

// Close shuts the service down: refuse new submissions, abort the
// running campaign and wait for the run loop.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, c := range s.campaigns {
		c.cancel()
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	if s.shutdown != nil {
		s.shutdown()
	}
	s.wg.Wait()
}

// runLoop executes queued campaigns one at a time, FIFO. Each campaign
// spawns its own workers, and one at a time is a deliberate choice, not a
// throughput bug: concurrent campaigns would compete for the machine's
// CPUs, and a served campaign should cost what the same local run costs.
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

// runCampaign executes one submission through launch.Campaign — the same
// function, with the same kind of workers, that `-mode run -workers N`
// calls — and files what is the service's own: the per-campaign directory
// with its journal, result and perf summary.
func (s *Server) runCampaign(c *Campaign) {
	app, err := s.opts.Resolve(c.spec.App)
	if err != nil {
		s.finish(c, nil, err)
		return
	}
	c.mu.Lock()
	c.state = StateRunning
	c.started = time.Now()
	c.mu.Unlock()
	s.logf("campaign %s running: app=%s", c.id, c.spec.App)

	dir := filepath.Join(s.opts.StateDir, "campaigns", c.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.finish(c, nil, err)
		return
	}
	// Every served campaign gets a ring-only perf sampler: the summary
	// lands in its ledger record and perf.json without clients asking.
	c.o.Sampler = obs.NewSampler(c.o, 0, nil, 0)
	c.o.Sampler.Start()
	out, err := launch.Campaign(c.ctx, app, c.spec, launch.Env{
		WorkerCmd:      s.opts.WorkerCmd,
		Obs:            c.o,
		Stderr:         s.opts.Logw,
		LedgerDir:      filepath.Join(s.opts.StateDir, "ledger"),
		ProfilePath:    filepath.Join(s.opts.StateDir, "profile.json"),
		CheckpointPath: filepath.Join(dir, "journal.jsonl"),
	})
	c.o.Sampler.Stop()
	if err != nil {
		s.finish(c, nil, err)
		return
	}
	if out.SaveErr != nil {
		s.logf("campaign %s: %v", c.id, out.SaveErr)
	}
	if f, err := os.Create(filepath.Join(dir, "result.json")); err == nil {
		if werr := report.JSON(f, []*campaign.Result{out.Result}); werr != nil {
			s.logf("campaign %s: writing result.json: %v", c.id, werr)
		}
		f.Close()
	}
	if out.Record != nil && out.Record.Perf != nil {
		// The summary sits beside the campaign's journal and result so
		// one submission's whole story lives in its directory.
		if b, jerr := json.MarshalIndent(out.Record.Perf, "", "  "); jerr == nil {
			if werr := os.WriteFile(filepath.Join(dir, "perf.json"), b, 0o644); werr != nil {
				s.logf("campaign %s: writing perf.json: %v", c.id, werr)
			}
		}
	}
	s.finish(c, out, nil)
}

// finish settles a campaign's terminal state. The state is published
// last, together with the ledger run ID: a client that polls for "done"
// must find the whole record.
func (s *Server) finish(c *Campaign, out *launch.Outcome, err error) {
	state := StateDone
	switch {
	case c.ctx.Err() != nil:
		state = StateCancelled
	case err != nil:
		state = StateFailed
	}
	c.mu.Lock()
	if out != nil {
		c.res = out.Result
		if out.Record != nil {
			c.runID = out.Record.RunID
		}
	}
	c.finished = time.Now()
	c.state = state
	if state == StateFailed {
		c.errMsg = err.Error()
	}
	c.mu.Unlock()
	s.opts.Obs.CounterAdd(obs.MServerCampaigns, 1, "state", state)
	if err != nil {
		s.logf("campaign %s finished: %s (%v)", c.id, state, err)
	} else {
		s.logf("campaign %s finished: %s", c.id, state)
	}
}
