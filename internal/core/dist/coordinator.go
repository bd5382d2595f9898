package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/obs"
)

// Defaults for worker supervision.
const (
	// DefaultItemTimeout bounds one work item's wall clock as seen by the
	// coordinator (dispatch to result). Items run whole unit-test trees,
	// so this is generous; the harness's own per-test timeout fires long
	// before it unless the worker itself is wedged.
	DefaultItemTimeout = 10 * time.Minute
	// DefaultItemRetries is how many times a crashed or timed-out item is
	// requeued (on a fresh worker) before the coordinator gives up and
	// quarantines it.
	DefaultItemRetries = 2
	// spawnFailureLimit is how many consecutive failed launches kill a
	// worker slot for good.
	spawnFailureLimit = 3
	// stallHeartbeats is how many heartbeat intervals a worker may stay
	// silent before it is flagged stalled (advisory — the worker is not
	// killed; the per-item deadline still governs). With Config.HeartbeatMS
	// zero nothing is ever stalled: a worker that never heartbeats (and
	// legacy test fakes) has no interval to miss.
	stallHeartbeats = 5
)

// Options configures a Coordinator.
type Options struct {
	// App is the application name sent to workers in the init message.
	App string
	// Workers is the number of worker slots (subprocesses kept alive at
	// once). Zero means 1.
	Workers int
	// WorkerCmd builds the command for one worker subprocess, typically
	// `os.Executable() -worker`. Called again for every respawn.
	WorkerCmd func() *exec.Cmd
	// Config is the campaign configuration shipped to every worker.
	Config Config
	// CheckpointPath, when set, journals every completed item — executed,
	// or submitted with a stored result the file does not hold yet — so a
	// later campaign can -resume from it.
	CheckpointPath string
	// ItemTimeout bounds one item's dispatch-to-result wall clock; a
	// worker holding an overdue item is killed. Zero means
	// DefaultItemTimeout.
	ItemTimeout time.Duration
	// ItemRetries bounds requeues per item before quarantine. Zero
	// disables retries; negative means DefaultItemRetries.
	ItemRetries int
	// MaxItems, when positive, halts the run after that many items
	// complete — a testing hook for exercising checkpoint/resume.
	MaxItems int
	// SchedPolicy selects the work queue's dispatch order (sched.FIFO,
	// the zero value, keeps submission order; sched.LPT pops the
	// longest-predicted item first).
	SchedPolicy sched.Policy
	// SpeculationFactor enables straggler speculation: once the queue is
	// drained, an item held by one worker for longer than this factor ×
	// its predicted duration is re-issued to an idle worker,
	// first-result-wins. Zero (or negative) disables speculation.
	SpeculationFactor float64
	// Profile, when non-nil, receives every completed item's wall clock
	// so later campaigns predict durations from it.
	Profile *sched.Profile
	// QuarantineThreshold is the number of distinct confirming tests
	// after which a parameter is broadcast to workers as quarantined
	// (§4's frequent-failer rule); 0 means 3.
	QuarantineThreshold int
	// Obs receives the coordinator's metrics, spans and events, among them
	// every item's completion. Nil disables observability.
	Obs *obs.Observer
	// Stderr, when non-nil, receives worker stderr (for diagnosis).
	Stderr io.Writer
}

// Coordinator shards work items across worker subprocesses. It is a
// campaign.Distributor (Begin / Submit / Drain, with the failure kept for
// Err); callers that hold the whole batch can use Execute, and callers
// that want the errors in line use Start and the Run it returns.
type Coordinator struct {
	opts Options

	// The Distributor's one run; Abort may arrive before Begin.
	mu      sync.Mutex
	run     *Run
	err     error
	aborted bool
}

// New builds a Coordinator. Option defaults are resolved at Start time.
func New(opts Options) *Coordinator {
	return &Coordinator{opts: opts}
}

// Execute runs a fixed batch of items to completion: Begin, Submit every
// item, Drain. Kept for callers that have the whole batch up front.
func (c *Coordinator) Execute(parent obs.SpanID, items []campaign.WorkItem) ([]campaign.ItemResult, error) {
	c.Begin(parent, len(items))
	for _, it := range items {
		c.Submit(it)
	}
	return c.Drain(), c.Err()
}

// Begin opens the coordinator's run (see Start). A failure is kept for
// Err; Submit and Drain then do nothing.
func (c *Coordinator) Begin(parent obs.SpanID, total int) {
	run, err := c.Start(parent, total)
	c.mu.Lock()
	c.run, c.err = run, err
	aborted := c.aborted
	c.mu.Unlock()
	if aborted && run != nil {
		run.Abort()
	}
}

// Submit hands one work item to the run Begin opened.
func (c *Coordinator) Submit(item campaign.WorkItem) {
	if run := c.Run(); run != nil {
		run.Submit(item)
	}
}

// Drain returns the run's results, or nothing when the run failed or never
// started; Err says which.
func (c *Coordinator) Drain() []campaign.ItemResult {
	run := c.Run()
	if run == nil {
		return nil
	}
	res, err := run.Drain()
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
	return res
}

// Err is the failure of Begin or Drain, nil when the run succeeded (a
// halted or aborted run is not a failure).
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Run is the run Begin opened, nil before Begin or when it failed.
func (c *Coordinator) Run() *Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.run
}

// Abort halts the run Begin opened (see Run.Abort), or makes Begin halt it
// as soon as it opens. Safe at any time, from any goroutine.
func (c *Coordinator) Abort() {
	c.mu.Lock()
	c.aborted = true
	run := c.run
	c.mu.Unlock()
	if run != nil {
		run.Abort()
	}
}

// Start opens an incremental run expecting exactly total Submits:
// workers spawn with the first item to run and start on items as they
// arrive, which is what lets the campaign's streaming pipeline dispatch
// each item the moment its pre-run finishes.
func (c *Coordinator) Start(parent obs.SpanID, total int) (*Run, error) {
	if c.opts.WorkerCmd == nil {
		return nil, errors.New("dist: Coordinator requires WorkerCmd")
	}
	workers := c.opts.Workers
	if workers <= 0 {
		workers = 1
	}
	o := c.opts.Obs
	span := o.StartSpan("distribute", parent,
		obs.String("app", c.opts.App),
		obs.Int("workers", int64(workers)),
		obs.Int("items", int64(total)))

	parallel := c.opts.Config.Parallel
	if parallel <= 0 {
		parallel = DefaultWorkerParallel
	}
	o.SetSlots(workers * parallel)

	r := &Run{
		opts:     c.opts,
		workers:  workers,
		parallel: parallel,
		total:    total,
		o:        o,
		span:     span,
	}
	r.hbEvery = time.Duration(c.opts.Config.HeartbeatMS) * time.Millisecond
	r.stallAfter = stallHeartbeats * r.hbEvery
	if r.opts.ItemTimeout <= 0 {
		r.opts.ItemTimeout = DefaultItemTimeout
	}
	if r.opts.ItemRetries < 0 {
		r.opts.ItemRetries = DefaultItemRetries
	}
	if err := r.start(); err != nil {
		if r.journal != nil {
			r.journal.Close()
		}
		span.End()
		return nil, err
	}
	return r, nil
}

// flight is the coordinator's view of one dispatched (primary) attempt,
// the speculation bookkeeping: who holds the item, since when, and
// whether a speculative copy is already out.
type flight struct {
	item  campaign.WorkItem
	slot  int
	start time.Time
	spec  bool
}

// Run is one coordinator execution in flight, between Start and Drain.
type Run struct {
	opts    Options
	workers int
	// parallel bounds the items one worker holds at once.
	parallel int
	total    int
	o        *obs.Observer
	span     *obs.Span
	journal  *Journal
	q        *sched.Queue[campaign.WorkItem]
	wake     chan struct{} // see queue.go
	// work is closed by the first push: until there is an item to run no
	// slot obtains a worker, so a run whose every item arrives with a
	// stored result starts none.
	work     chan struct{}
	workOnce sync.Once
	// held names the tests the checkpoint file already had a completed
	// record for when this run opened it; a stored result for one of them
	// is not journaled again.
	held map[string]bool
	// done is the campaign's completion step; it decides which parameters
	// to broadcast as quarantined, and has its own lock.
	done *campaign.Completion
	wg   sync.WaitGroup

	// Heartbeat supervision, resolved from Config.HeartbeatMS at Start;
	// stalls counts stall events across every session for the campaign
	// report.
	hbEvery    time.Duration
	stallAfter time.Duration
	stalls     atomic.Int64

	mu           sync.Mutex
	results      map[int]campaign.ItemResult // one per item resolved this run
	attempts     map[int]int
	flights      map[int]*flight
	sessions     map[int]*workerSession
	submitted    int
	allSubmitted bool
	// durSum/durN hold a running mean of completed-item durations, the
	// speculation deadline fallback for items without a prediction.
	durSum      float64
	durN        int
	live        int // worker slots not yet permanently dead
	lastFailure string
	failErr     error
	finished    bool
	halted      bool
	doneCh      chan struct{}
}

func (r *Run) start() error {
	if err := r.openCheckpoint(); err != nil {
		return err
	}
	r.results = make(map[int]campaign.ItemResult)
	r.attempts = make(map[int]int)
	r.flights = make(map[int]*flight)
	r.sessions = make(map[int]*workerSession)
	r.done = campaign.NewCompletion(r.opts.App, r.opts.QuarantineThreshold, r.opts.Config.MaxRounds, r.opts.Profile, r.o)
	r.live = r.workers
	r.doneCh = make(chan struct{})
	r.q = sched.NewQueue[campaign.WorkItem](r.opts.SchedPolicy, r.o, r.opts.App, "dist")
	r.wake = make(chan struct{}, 1)
	r.work = make(chan struct{})
	if r.total <= 0 {
		r.finished = true
		close(r.doneCh)
		return nil
	}
	for slot := 0; slot < r.workers; slot++ {
		r.wg.Add(1)
		go func(slot int) {
			defer r.wg.Done()
			r.supervise(slot)
		}(slot)
	}
	return nil
}

// Submit hands one work item to the run; exactly Start's total must be
// submitted. An item that carries a stored result completes with it here
// and now; the rest enter the queue immediately, so workers start on them
// while later pre-runs are still executing.
func (r *Run) Submit(item campaign.WorkItem) {
	r.mu.Lock()
	r.submitted++
	r.allSubmitted = r.submitted >= r.total
	if item.Stored != nil {
		r.results[item.ID] = *item.Stored
	}
	r.mu.Unlock()
	if item.Stored != nil {
		r.complete(*item.Stored, true, 0, 0)
		return
	}
	r.push(item)
	r.o.GaugeSet(obs.MQueueDepth, int64(r.q.Len()), "app", r.opts.App)
}

// Stalls reports how many times a worker crossed the heartbeat stall
// threshold during this run (0 with heartbeats off). Meaningful any
// time; final after Drain.
func (r *Run) Stalls() int64 { return r.stalls.Load() }

// Abort halts the run early: sessions stop dispatching, inflight items
// are abandoned, and Drain returns the results accumulated so far
// without error (the same partial-result semantics as the MaxItems
// halt). Safe to call at any time, from any goroutine, more than once.
// Used by the campaign server to cancel a running submitted campaign.
func (r *Run) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	r.halted = true
	close(r.doneCh)
}

// Drain blocks until every item resolves (or the run halts, or every
// worker slot is lost) and returns one ItemResult per completed item —
// including items submitted with a stored result and items quarantined
// after exhausting retries — sorted by item ID.
func (r *Run) Drain() ([]campaign.ItemResult, error) {
	r.wg.Wait()
	r.o.GaugeSet(obs.MQueueDepth, 0, "app", r.opts.App)
	if r.journal != nil {
		r.journal.Close()
	}
	defer r.span.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failErr != nil && len(r.results) < r.total && !r.halted {
		return nil, r.failErr
	}
	out := make([]campaign.ItemResult, 0, len(r.results))
	for _, res := range r.results {
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// openCheckpoint opens the checkpoint journal and appends this session's
// header. What the file already holds is read first, so that resuming into
// the journal being resumed from does not write every stored result back
// into it, while resuming into a different file leaves that one
// self-contained.
func (r *Run) openCheckpoint() error {
	if r.opts.CheckpointPath == "" {
		return nil
	}
	recs, err := ReadJournal(r.opts.CheckpointPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	r.held = make(map[string]bool)
	for _, rec := range recs {
		if rec.Kind == KindDone && rec.Result != nil {
			r.held[rec.Test] = true
		}
	}
	j, err := OpenJournal(r.opts.CheckpointPath, 0)
	if err != nil {
		return err
	}
	r.journal = j
	if err := j.Append(Record{Kind: KindHeader, App: r.opts.App, Seed: r.opts.Config.Seed, Items: r.total}); err != nil {
		return err
	}
	return j.Sync()
}

// sessionOutcome classifies why one worker session ended.
type sessionOutcome int

const (
	sessDone      sessionOutcome = iota // run finished or halted; slot retires
	sessCrashed                         // worker lost after doing work; respawn
	sessSpawnFail                       // worker never became ready; counts toward slot death
)

// supervise owns one worker slot: spawn a worker, run its session,
// replace it on crash, retire the slot after spawnFailureLimit
// consecutive failed launches.
func (r *Run) supervise(slot int) {
	select {
	case <-r.work:
	case <-r.doneCh:
		return
	}
	fails := 0
	for {
		if r.stopped() {
			return
		}
		sess, err := r.spawn(slot)
		if err != nil {
			if r.stopped() {
				return
			}
			r.neverReady(slot, err.Error())
			fails++
			if fails >= spawnFailureLimit {
				r.slotDied()
				return
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		switch r.session(slot, sess) {
		case sessDone:
			return
		case sessCrashed:
			fails = 0
		case sessSpawnFail:
			fails++
			if fails >= spawnFailureLimit {
				r.slotDied()
				return
			}
		}
	}
}

// session drives one live worker until the run completes, the worker is
// lost, or it never becomes ready.
func (r *Run) session(slot int, sess *workerSession) sessionOutcome {
	o := r.o
	app := r.opts.App
	wspan := o.StartSpan("worker", r.span.ID(),
		obs.String("app", app), obs.Int("slot", int64(slot)))
	defer wspan.End()
	r.addSession(slot, sess)
	defer r.removeSession(slot, sess)

	type entry struct {
		item  campaign.WorkItem
		start time.Time
		spec  bool
		// span is the coordinator-side "item" span for this attempt; the
		// worker's trace fragment is stitched under it on acceptance.
		// Every teardown path must End it, or its stitched children would
		// reference a span the trace file never defines.
		span *obs.Span
	}
	inflight := make(map[int]entry)
	ready := false
	spawned := time.Now()
	itemsDone := 0
	// Heartbeat stall tracking, gated on hbSeen: stall detection only
	// arms after this session's first heartbeat, so workers that never
	// beat (heartbeats off, or protocol fakes predating them) are never
	// flagged.
	var lastHB time.Time
	hbSeen := false
	stalled := false

	// crash tears the session down after the worker is lost: every
	// inflight primary attempt is penalized (it may be what killed the
	// worker); a speculative copy just evaporates — the primary attempt
	// elsewhere still owns its item.
	crash := func(reason string) sessionOutcome {
		sess.kill()
		o.Event(obs.EvWorkerCrash,
			obs.String("app", app), obs.Int("worker", int64(slot)),
			obs.String("reason", reason))
		wspan.SetAttr(obs.String("end", reason), obs.Int("items", int64(itemsDone)))
		for id, e := range inflight {
			e.span.SetAttr(obs.String("end", reason))
			e.span.End()
			if e.spec {
				r.clearSpec(id)
				continue
			}
			r.retryOrGiveUp(e.item, reason)
		}
		return sessCrashed
	}

	tickEvery := r.opts.ItemTimeout / 8
	if tickEvery > time.Second {
		tickEvery = time.Second
	}
	if r.stallAfter > 0 && tickEvery > r.stallAfter/4 {
		// Stall detection rides the same ticker; keep it responsive
		// relative to the stall threshold, not just the item timeout.
		tickEvery = r.stallAfter / 4
	}
	if tickEvery < 5*time.Millisecond {
		tickEvery = 5 * time.Millisecond
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()

	for {
		if ready && !r.stopped() {
			for len(inflight) < r.parallel {
				item, ok := r.q.TryPop()
				spec := false
				if !ok {
					// Queue drained: consider re-issuing a straggler held
					// by another worker instead of idling this slot.
					item, ok = r.maybeSpeculate(slot)
					if !ok {
						break
					}
					spec = true
				} else {
					o.GaugeSet(obs.MQueueDepth, int64(r.q.Len()), "app", app)
				}
				if err := sess.send(Msg{Type: MsgRun, Item: &item}); err != nil {
					// The item never reached the worker; requeue it for
					// free and treat the broken pipe as a crash.
					if spec {
						r.clearSpec(item.ID)
					} else {
						r.push(item)
					}
					return crash("crash")
				}
				if !spec {
					r.trackFlight(slot, item)
				}
				dispatchAttrs := []obs.Attr{
					obs.String("app", app),
					obs.Int("item", int64(item.ID)),
					obs.String("test", item.Test),
					obs.Int("worker", int64(slot)),
				}
				if spec {
					o.Event(obs.EvSpeculate, dispatchAttrs...)
				}
				o.Event(obs.EvItemDispatch, append(dispatchAttrs, obs.Bool("spec", spec))...)
				ispan := o.StartSpan("item", wspan.ID(),
					obs.String("app", app),
					obs.String("test", item.Test),
					obs.Int("item", int64(item.ID)))
				if spec {
					ispan.SetAttr(obs.Bool("spec", true))
				}
				inflight[item.ID] = entry{item: item, start: time.Now(), spec: spec, span: ispan}
			}
		}
		if r.stopped() {
			// Complete, halted, or failed elsewhere. All results are
			// either in or abandoned with the run; drop the worker.
			sess.bye(len(inflight) == 0)
			for _, e := range inflight {
				e.span.SetAttr(obs.String("end", "abandoned"))
				e.span.End()
			}
			wspan.SetAttr(obs.String("end", "done"), obs.Int("items", int64(itemsDone)))
			o.Event(obs.EvWorkerDone,
				obs.String("app", app), obs.Int("worker", int64(slot)))
			return sessDone
		}

		select {
		case m, ok := <-sess.msgs:
			if !ok {
				if !ready {
					sess.kill()
					r.neverReady(slot, "worker exited before ready")
					return sessSpawnFail
				}
				return crash("crash")
			}
			switch m.Type {
			case MsgReady:
				if m.Error != "" {
					sess.kill()
					r.neverReady(slot, m.Error)
					return sessSpawnFail
				}
				ready = true
				wspan.SetAttr(obs.Int("pid", int64(m.PID)))
				o.Event(obs.EvWorkerReady,
					obs.String("app", app), obs.Int("worker", int64(slot)),
					obs.Int("pid", int64(m.PID)))
			case MsgHeartbeat:
				lastHB = time.Now()
				hbSeen = true
				if stalled {
					stalled = false
					o.Event(obs.EvWorkerRecovered,
						obs.String("app", app), obs.Int("worker", int64(slot)))
				}
				var hb Heartbeat
				if m.HB != nil {
					hb = *m.HB
				}
				o.WorkerHeartbeat(app, slot, m.PID, hb.Inflight, hb.Executions, hb.Goroutines, hb.HeapBytes)
			case MsgResult:
				if m.Result == nil {
					return crash("crash")
				}
				e, known := inflight[m.Result.ID]
				if !known {
					break
				}
				delete(inflight, m.Result.ID)
				itemsDone++
				if r.recordResult(slot, *m.Result, time.Since(e.start), e.item.PredSeconds, e.spec) {
					r.stitchSpans(e.span, e.start, m.Spans)
				} else {
					// The losing copy of a speculated (or timeout-retried)
					// item: its result — evidence and all — and its trace
					// fragment were discarded before accounting; mark the
					// attempt so the trace shows where the duplicate work
					// went.
					e.span.SetAttr(obs.Bool("duplicate", true))
				}
				e.span.End()
			}
		case <-tick.C:
			if !ready {
				if time.Since(spawned) > r.opts.ItemTimeout {
					sess.kill()
					r.neverReady(slot, "worker not ready within item timeout")
					return sessSpawnFail
				}
				break
			}
			now := time.Now()
			if hbSeen && r.stallAfter > 0 {
				silent := now.Sub(lastHB)
				if missed := int64(silent / r.hbEvery); missed > 0 {
					o.GaugeSet(obs.MMissedHeartbeats, missed, "app", app, "worker", strconv.Itoa(slot))
				}
				if !stalled && silent > r.stallAfter {
					stalled = true
					r.stalls.Add(1)
					o.Event(obs.EvWorkerStalled,
						obs.String("app", app), obs.Int("worker", int64(slot)),
						obs.Float("silent_s", silent.Seconds()),
						obs.Int("inflight", int64(len(inflight))))
				}
			}
			for id, e := range inflight {
				if now.Sub(e.start) <= r.opts.ItemTimeout {
					continue
				}
				// The overdue item is the suspect: it alone is penalized.
				// The worker is killed (the item's goroutine cannot be),
				// so the other inflight items requeue for free — except
				// speculative copies, which simply evaporate (their
				// primaries are still running elsewhere).
				sess.kill()
				delete(inflight, id)
				e.span.SetAttr(obs.String("end", "timeout"))
				e.span.End()
				if e.spec {
					r.clearSpec(id)
				} else {
					r.retryOrGiveUp(e.item, "timeout")
				}
				for oid, other := range inflight {
					other.span.SetAttr(obs.String("end", "requeued"))
					other.span.End()
					if other.spec {
						r.clearSpec(oid)
						continue
					}
					r.untrackFlight(oid)
					r.push(other.item)
				}
				o.Event(obs.EvWorkerCrash,
					obs.String("app", app), obs.Int("worker", int64(slot)),
					obs.String("reason", "timeout"))
				wspan.SetAttr(obs.String("end", "timeout"), obs.Int("items", int64(itemsDone)))
				return sessCrashed
			}
		case <-r.wake:
		case <-r.doneCh:
		}
	}
}

// addSession registers a live worker for quarantine broadcasts and sends
// it the hints it missed (a respawned worker starts with a clean slate;
// so does every worker of a resumed run).
func (r *Run) addSession(slot int, s *workerSession) {
	r.mu.Lock()
	r.sessions[slot] = s
	r.mu.Unlock()
	// Read after registering: a parameter quarantined from here on finds
	// this session among its broadcast targets, one quarantined before is
	// in this list (one in between arrives twice, which is harmless).
	for _, p := range r.done.Quarantined() {
		s.send(Msg{Type: MsgQuarantine, Param: p})
	}
}

func (r *Run) removeSession(slot int, s *workerSession) {
	r.mu.Lock()
	if r.sessions[slot] == s {
		delete(r.sessions, slot)
	}
	r.mu.Unlock()
}

func (r *Run) trackFlight(slot int, item campaign.WorkItem) {
	r.mu.Lock()
	r.flights[item.ID] = &flight{item: item, slot: slot, start: time.Now()}
	r.mu.Unlock()
}

func (r *Run) untrackFlight(id int) {
	r.mu.Lock()
	delete(r.flights, id)
	r.mu.Unlock()
}

// clearSpec forgets a lost speculative copy so a future idle worker may
// speculate the item again.
func (r *Run) clearSpec(id int) {
	r.mu.Lock()
	if f := r.flights[id]; f != nil {
		f.spec = false
	}
	r.mu.Unlock()
}

// maybeSpeculate picks a straggler to re-issue on an idle slot: the most
// overdue un-speculated flight held by another worker, judged against
// its predicted duration (or the running mean of completed items when no
// prediction exists). Only after every item has been submitted and the
// queue is drained — speculation must never displace first-run work —
// and at most one speculative copy per item at a time. First result
// wins; executions are canonically seeded, so the copies are
// byte-identical and the loser is discarded as a duplicate.
func (r *Run) maybeSpeculate(slot int) (campaign.WorkItem, bool) {
	if r.opts.SpeculationFactor <= 0 || r.q.Len() != 0 {
		return campaign.WorkItem{}, false
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.allSubmitted || r.finished {
		return campaign.WorkItem{}, false
	}
	var mean float64
	if r.durN > 0 {
		mean = r.durSum / float64(r.durN)
	}
	var best *flight
	var bestRatio float64
	for _, f := range r.flights {
		if f.spec || f.slot == slot {
			continue
		}
		pred := f.item.PredSeconds
		if pred <= 0 {
			pred = mean
		}
		held := now.Sub(f.start)
		if !sched.Overdue(held, pred, r.opts.SpeculationFactor) {
			continue
		}
		if ratio := held.Seconds() / pred; best == nil || ratio > bestRatio {
			best, bestRatio = f, ratio
		}
	}
	if best == nil {
		return campaign.WorkItem{}, false
	}
	best.spec = true
	return best.item, true
}

// stitchSpans folds a worker's trace fragment under the coordinator's
// item span, so a -workers campaign's trace renders as one tree. Every
// fragment span is re-identified (worker IDs are fragment-local and
// would collide with the coordinator's), fragment roots — and references
// to spans the fragment never closed — are re-parented onto the item
// span, and start times are rebased from the worker tracer's epoch to
// the dispatch instant on the coordinator's clock.
func (r *Run) stitchSpans(item *obs.Span, dispatched time.Time, frag []obs.SpanRecord) {
	if item == nil || len(frag) == 0 || r.o == nil || r.o.Tracer == nil {
		return
	}
	tr := r.o.Tracer
	ids := make(map[obs.SpanID]obs.SpanID, len(frag))
	for _, rec := range frag {
		ids[rec.Span] = tr.AllocID()
	}
	base := tr.SinceEpochUS(dispatched)
	for _, rec := range frag {
		rec.Span = ids[rec.Span]
		if p, ok := ids[rec.Parent]; ok {
			rec.Parent = p
		} else {
			rec.Parent = item.ID()
		}
		rec.StartUS += base
		tr.Emit(rec)
	}
}

// recordResult takes one worker's result for an item predicted to take
// pred seconds. First result wins: a duplicate — the losing copy of a
// speculated item, or a timeout-retry race — is discarded here, before any
// accounting, and reported false so the caller skips trace stitching too.
func (r *Run) recordResult(slot int, res campaign.ItemResult, elapsed time.Duration, pred float64, spec bool) bool {
	r.mu.Lock()
	_, dup := r.results[res.ID]
	if !dup {
		r.results[res.ID] = res
		delete(r.flights, res.ID)
		r.durSum += elapsed.Seconds()
		r.durN++
	}
	r.mu.Unlock()
	// A completion moves the running mean that speculation deadlines
	// fall back on; let an idle session look again.
	r.pulse()
	if dup {
		// Execution is canonically seeded, so the copies agree; nothing
		// to record.
		r.o.Event(obs.EvSpeculationLoss,
			obs.String("app", r.opts.App),
			obs.Int("item", int64(res.ID)),
			obs.Int("worker", int64(slot)),
			obs.Bool("spec", spec))
		return false
	}
	if spec {
		r.o.Event(obs.EvSpeculationWin,
			obs.String("app", r.opts.App),
			obs.Int("item", int64(res.ID)),
			obs.Int("worker", int64(slot)))
	}
	r.complete(res, false, elapsed.Seconds(), pred,
		obs.Int("worker", int64(slot)),
		obs.Bool("spec", spec))
	return true
}

// complete is the end of every item's road once its result is in
// r.results, executed by a worker or submitted with a stored result: the
// checkpoint record, the campaign's completion step (how adds the worker
// attribution), the broadcast of what §4's rule quarantines, and the check
// whether that was the last item. A stored result the checkpoint already
// holds is not written to it again, and what it quarantines is not
// announced again (its own run did) — but is broadcast (best-effort) to the
// live workers like any other, so remaining items skip the parameter's
// instances; a worker spawned later is caught up by addSession.
func (r *Run) complete(res campaign.ItemResult, stored bool, elapsed, pred float64, how ...obs.Attr) {
	if r.journal != nil && !(stored && r.held[res.Test]) {
		if err := r.journal.Append(Record{Kind: KindDone, Item: res.ID, Test: res.Test, Result: &res}); err != nil {
			r.noteFailure("checkpoint write failed: " + err.Error())
		}
	}
	for _, param := range r.done.Complete(res, elapsed, pred, stored, how...) {
		r.mu.Lock()
		targets := make([]*workerSession, 0, len(r.sessions))
		for _, s := range r.sessions {
			targets = append(targets, s)
		}
		r.mu.Unlock()
		for _, s := range targets {
			// Best-effort: a send failure means the worker is dying
			// and its supervisor will notice through the session.
			s.send(Msg{Type: MsgQuarantine, Param: param})
		}
	}
	r.maybeFinish()
}

// retryOrGiveUp charges one failed attempt to an item: requeue it for a
// fresh worker, or — past the retry budget — quarantine it with a
// fabricated result so the campaign report surfaces the coverage gap.
// An item already resolved (typically by a speculative copy that won
// while its primary crashed) is simply released.
func (r *Run) retryOrGiveUp(item campaign.WorkItem, reason string) {
	r.mu.Lock()
	if _, resolved := r.results[item.ID]; resolved {
		r.mu.Unlock()
		return
	}
	delete(r.flights, item.ID)
	r.attempts[item.ID]++
	n := r.attempts[item.ID]
	r.mu.Unlock()
	if n <= r.opts.ItemRetries {
		r.o.Event(obs.EvItemRetried,
			obs.String("app", r.opts.App),
			obs.Int("item", int64(item.ID)),
			obs.String("test", item.Test),
			obs.String("reason", reason))
		r.push(item)
		return
	}
	res := campaign.ItemResult{
		ID:          item.ID,
		Test:        item.Test,
		Quarantined: true,
		Error:       fmt.Sprintf("abandoned after %d attempts (last failure: %s)", n, reason),
	}
	r.o.Event(obs.EvItemQuarantined,
		obs.String("app", r.opts.App),
		obs.Int("item", int64(item.ID)),
		obs.String("test", item.Test),
		obs.String("reason", reason))
	if r.journal != nil {
		if err := r.journal.Append(Record{Kind: KindGiveUp, Item: item.ID, Test: item.Test, Reason: reason}); err != nil {
			r.noteFailure("checkpoint write failed: " + err.Error())
		}
	}
	r.mu.Lock()
	if _, dup := r.results[res.ID]; !dup {
		r.results[res.ID] = res
	}
	r.mu.Unlock()
	r.maybeFinish()
}

// maybeFinish closes the run when every item is resolved, or when the
// MaxItems testing hook trips.
func (r *Run) maybeFinish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return
	}
	if len(r.results) >= r.total {
		r.finished = true
		close(r.doneCh)
		return
	}
	if r.opts.MaxItems > 0 && len(r.results) >= r.opts.MaxItems {
		r.finished = true
		r.halted = true
		close(r.doneCh)
	}
}

func (r *Run) stopped() bool {
	select {
	case <-r.doneCh:
		return true
	default:
		return false
	}
}

func (r *Run) noteFailure(msg string) {
	r.mu.Lock()
	r.lastFailure = msg
	r.mu.Unlock()
}

// neverReady accounts a worker lost before it became ready — it could not
// be started, exited or answered ready with an error, or missed the ready
// deadline: a crash with reason spawn, which counts toward retiring the slot.
func (r *Run) neverReady(slot int, why string) {
	r.noteFailure(why)
	r.o.Event(obs.EvWorkerCrash,
		obs.String("app", r.opts.App), obs.Int("worker", int64(slot)),
		obs.String("reason", "spawn"))
}

// slotDied retires a worker slot permanently; when the last slot dies
// with work remaining, the run fails.
func (r *Run) slotDied() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live--
	if r.live > 0 || r.finished {
		return
	}
	r.failErr = fmt.Errorf("dist: all %d worker slots failed (last failure: %s)", r.workers, r.lastFailure)
	r.finished = true
	close(r.doneCh)
}

// workerSession is one live worker subprocess as seen by the coordinator:
// frames go to its stdin and come back through readLoop off its stdout.
type workerSession struct {
	stdin      io.WriteCloser
	cmd        *exec.Cmd
	msgs       chan Msg
	readerDone chan struct{}
	killOnce   sync.Once
	// sendMu serializes send, which encodes each frame into line.
	sendMu sync.Mutex
	line   bytes.Buffer
}

// spawn launches a worker subprocess for a slot and sends it the init
// message.
func (r *Run) spawn(slot int) (*workerSession, error) {
	cmd := r.opts.WorkerCmd()
	if cmd == nil {
		return nil, errors.New("dist: WorkerCmd returned nil")
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if r.opts.Stderr != nil {
		cmd.Stderr = r.opts.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r.o.Event(obs.EvWorkerSpawn,
		obs.String("app", r.opts.App), obs.Int("worker", int64(slot)),
		obs.Int("pid", int64(cmd.Process.Pid)))
	s := &workerSession{
		stdin:      stdin,
		cmd:        cmd,
		msgs:       make(chan Msg, 64),
		readerDone: make(chan struct{}),
	}
	go s.readLoop(stdout)
	if err := s.send(Msg{Type: MsgInit, App: r.opts.App, Config: &r.opts.Config}); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// send encodes m once into the session's reused buffer and writes the
// line in one call.
func (s *workerSession) send(m Msg) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.line.Reset()
	if err := json.NewEncoder(&s.line).Encode(m); err != nil {
		return err
	}
	_, err := s.stdin.Write(s.line.Bytes())
	return err
}

// readLoop streams worker messages into s.msgs until EOF or a corrupt
// line (a worker that has lost protocol framing is as good as dead).
func (s *workerSession) readLoop(rd io.Reader) {
	defer close(s.readerDone)
	defer close(s.msgs)
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		var m Msg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return
		}
		s.msgs <- m
	}
}

// bye ends a session cleanly when possible: with nothing inflight, ask
// the worker to drain and exit, give it a moment, then reap.
func (s *workerSession) bye(clean bool) {
	if clean {
		if err := s.send(Msg{Type: MsgBye}); err == nil {
			select {
			case <-s.readerDone:
			case <-time.After(2 * time.Second):
			}
		}
	}
	s.kill()
}

// kill tears the worker down: close its stdin, kill the process and reap
// it once the reader has drained. Idempotent. The session loop never reads
// msgs after calling kill, so the reaper drains the channel to unblock the
// reader.
func (s *workerSession) kill() {
	s.killOnce.Do(func() {
		s.stdin.Close()
		s.cmd.Process.Kill()
		go func() {
			for range s.msgs {
			}
			<-s.readerDone
			s.cmd.Wait()
		}()
	})
}
