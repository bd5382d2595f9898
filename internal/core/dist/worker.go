package dist

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// DefaultWorkerParallel bounds concurrent work items inside one worker
// subprocess when the init config leaves Parallel zero (launch.Campaign
// always sets it, dividing campaign.DefaultParallelism across the
// workers). Executions run on virtual clocks and are processor-bound, so
// this is a cap on items in flight, not a level of oversubscription that
// buys anything.
const DefaultWorkerParallel = 8

// WorkerEnv carries worker-machine-local settings that are not part of
// the campaign configuration shipped by the coordinator: a worker's own
// flags decide where (and whether) its persistent disk cache lives, the
// coordinator only decides the campaign.
type WorkerEnv struct {
	// DiskCacheDir, when non-empty, is the directory of the worker's
	// persistent execution cache tier (-disk-cache).
	DiskCacheDir string
	// DiskCacheMaxBytes caps that store; zero selects the diskcache
	// default.
	DiskCacheMaxBytes int64
}

// ServeWorker runs the worker side of the protocol: read init, announce
// ready, execute run items (up to Config.Parallel concurrently), stream
// results back, and exit on bye or coordinator EOF. resolve maps the
// init message's application name to its App — injected so this package
// never depends on the application registry.
//
// Items share the session's Generator, whose only state is what the
// coordinator's quarantine broadcasts put there: with quarantine off an
// item's result depends only on (app, config, item), so retries on another
// worker — or replays from a checkpoint — are deterministic.
func ServeWorker(r io.Reader, w io.Writer, resolve func(string) (*harness.App, error)) error {
	return ServeWorkerEnv(r, w, resolve, WorkerEnv{})
}

// ServeWorkerEnv is ServeWorker with worker-local environment settings.
func ServeWorkerEnv(r io.Reader, w io.Writer, resolve func(string) (*harness.App, error), env WorkerEnv) error {
	// Every frame is encoded once into one reused buffer and written in
	// one call, so a line never interleaves with another sender's.
	var wmu sync.Mutex
	var line []byte
	send := func(m Msg) error {
		wmu.Lock()
		defer wmu.Unlock()
		b, err := canonjson.Append(line[:0], &m)
		if err != nil {
			return err
		}
		line = append(b, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
		if f, ok := w.(interface{ Flush() error }); ok {
			return f.Flush()
		}
		return nil
	}

	lr := newLineReader(r)
	defer lr.close()
	var in canonjson.Interner
	read := func() (Msg, error) {
		b, err := lr.next()
		if err != nil {
			return Msg{}, err
		}
		var m Msg
		if err := canonjson.Decode(b, &m, &in); err != nil {
			return Msg{}, fmt.Errorf("dist: worker: bad message: %w", err)
		}
		return m, nil
	}

	init, err := read()
	if err != nil {
		return fmt.Errorf("dist: worker: reading init: %w", err)
	}
	if init.Type != MsgInit || init.Config == nil {
		return fmt.Errorf("dist: worker: expected init, got %q", init.Type)
	}
	app, err := resolve(init.App)
	if err != nil {
		// Report the failure on the wire before dying so the coordinator
		// sees a reason, not just an EOF.
		send(Msg{Type: MsgReady, PID: os.Getpid(), Error: err.Error()})
		return err
	}
	cfg := *init.Config
	opts := cfg.CampaignOptions()
	// Default overrides apply before anything reads the schema, exactly
	// as the coordinator applies them in campaign.Run.
	app = campaign.OverrideApp(app, opts.Overrides)
	schema := app.Schema()
	// Execution memoization, one hierarchy (DESIGN.md §9): the session's
	// in-process cache → this worker's own disk directory, when its flags
	// name one. The disk tier outlives the campaign, which is what makes
	// label-seeded trials worth memoizing. An open failure just drops it.
	if !cfg.DisableExecCache && env.DiskCacheDir != "" {
		if store, err := diskcache.Open(env.DiskCacheDir, env.DiskCacheMaxBytes, nil, nil); err == nil {
			opts.CacheBackend = store
		} else {
			fmt.Fprintf(os.Stderr, "zebraconf worker: disk cache disabled: %v\n", err)
		}
	}
	// One cache, evidence budget, coverage collector and trial budget pool
	// for the whole session, so -evidence-max bounds the worker process and
	// trials saved by this worker's early stops fund its own marginal
	// parameters. opts.Obs is nil: the coordinator's completion step reads
	// what an item means for the campaign's views from its result, and
	// campaign.Run folds the read edges that ride home in it. Cache hits
	// replay their memoized read sets through the runner, so a fully warm
	// worker still reports complete coverage.
	rops := campaign.RunnerOptions(app.Name, opts)
	cov := rops.Coverage
	run := runner.New(app, rops)
	gen := testgen.New(schema)
	if len(opts.Params) > 0 {
		gen.SetFilter(opts.Params)
	}
	parallel := cfg.Parallel
	if parallel <= 0 {
		parallel = DefaultWorkerParallel
	}

	if err := send(Msg{Type: MsgReady, PID: os.Getpid()}); err != nil {
		return err
	}

	// Heartbeats: a side goroutine beats every HeartbeatMS with a health
	// snapshot — in-flight item IDs, executions done, goroutine count,
	// heap bytes. Send errors are ignored here; a dying pipe surfaces
	// through the session's own reads and writes.
	var hbmu sync.Mutex
	inflight := make(map[int]bool)
	var execDone atomic.Int64
	if cfg.HeartbeatMS > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			pid := os.Getpid()
			t := time.NewTicker(time.Duration(cfg.HeartbeatMS) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					hbmu.Lock()
					ids := make([]int, 0, len(inflight))
					for id := range inflight {
						ids = append(ids, id)
					}
					hbmu.Unlock()
					sort.Ints(ids)
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					_ = send(Msg{Type: MsgHeartbeat, PID: pid, HB: &Heartbeat{
						Inflight:   ids,
						Executions: execDone.Load(),
						Goroutines: runtime.NumGoroutine(),
						HeapBytes:  ms.HeapAlloc,
					}})
				}
			}
		}()
	}

	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	var sendErr error
	var errOnce sync.Once
	for {
		// On the way out, in-flight items are waited out: their results
		// still matter to a coordinator that is shutting down cleanly.
		m, err := read()
		if err == io.EOF || (err == nil && m.Type == MsgBye) {
			wg.Wait()
			return sendErr
		}
		if err != nil {
			wg.Wait()
			return err
		}
		if m.Type == MsgQuarantine {
			// §4's frequent-failer rule, confirmed across workers: from here
			// on items skip the parameter, as the in-process pipeline's do.
			if m.Param != "" {
				gen.Quarantine(m.Param)
			}
			continue
		}
		if m.Type != MsgRun || m.Item == nil {
			return fmt.Errorf("dist: worker: unexpected message %q", m.Type)
		}
		item := *m.Item
		// Mark the item in flight at receipt — before the semaphore wait,
		// so a saturated worker's heartbeats still name the items it is
		// responsible for.
		hbmu.Lock()
		inflight[item.ID] = true
		hbmu.Unlock()
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				hbmu.Lock()
				delete(inflight, item.ID)
				hbmu.Unlock()
			}()
			// Item tracing: execute under a private tracer and ship the
			// resulting span fragment home beside the item result. IDs are
			// fragment-local (a fresh tracer per item), parents of roots
			// are 0; the coordinator re-identifies both when stitching.
			itemRun, itemOpts := run, opts
			var frag *obs.Tracer
			if cfg.TraceItems {
				frag = obs.NewCollector()
				itemObs := &obs.Observer{Tracer: frag}
				tops := rops
				tops.Obs = itemObs
				itemRun = runner.New(app, tops)
				itemOpts.Obs = itemObs
			}
			res := campaign.ExecuteItem(app, gen, itemRun, itemOpts, obs.NoSpan, item)
			if params, ok := cov.Params(item.Test); ok {
				res.Coverage = params
			}
			execDone.Add(res.Executions)
			// Every span ends before ExecuteItem returns, so the fragment
			// is complete.
			if err := send(Msg{Type: MsgResult, Result: &res, Spans: frag.Records()}); err != nil {
				errOnce.Do(func() { sendErr = err })
			}
		}()
	}
}
