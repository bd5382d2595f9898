package dist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os/exec"
	"sort"
	"sync"
	"time"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/obs"
)

// Worker supervision constants (DESIGN §8): items take under a second, so
// these only have to survive a lost worker, never to tune one.
const (
	// DefaultItemTimeout bounds one work item's wall clock as seen by the
	// coordinator (dispatch to result), and a new worker's wait for ready.
	// Items run whole unit-test trees, so this is generous; the harness's
	// own per-test timeout fires long before it unless the worker itself
	// is wedged.
	DefaultItemTimeout = 10 * time.Minute
	// DefaultItemRetries is how many times a crashed or timed-out item is
	// requeued (on a fresh worker) before the coordinator gives up and
	// quarantines it.
	DefaultItemRetries = 2
	// spawnFailureLimit is how many consecutive failed launches kill a
	// worker slot for good.
	spawnFailureLimit = 3
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
	// ItemRetries bounds requeues per item before quarantine (typically
	// DefaultItemRetries); zero disables retries.
	ItemRetries int
	// SchedPolicy selects the work queue's dispatch order (sched.FIFO,
	// the zero value, keeps submission order; sched.LPT pops the
	// longest-predicted item first).
	SchedPolicy sched.Policy
	// SpeculationFactor is ignored: an item has at most one live attempt.
	// It is kept only for the benchmark module, which sets it, and goes
	// with ROADMAP item 1.
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
// Err); callers that want the errors in line use Start and the Run it
// returns.
type Coordinator struct {
	opts Options
	// itemTimeout (zero: DefaultItemTimeout) and maxItems (positive: halt
	// after that many resolved items) are set by tests only.
	itemTimeout time.Duration
	maxItems    int

	// The Distributor's one run.
	mu  sync.Mutex
	run *Run
	err error
}

// New builds a Coordinator. Option defaults are resolved at Start time.
func New(opts Options) *Coordinator {
	return &Coordinator{opts: opts}
}

// Execute runs a fixed batch of items to completion: Begin, Submit every
// item, Drain. It is kept only for the benchmark module, which calls it,
// and goes with ROADMAP item 1.
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
	c.mu.Unlock()
}

// Submit hands one work item to the run Begin opened.
func (c *Coordinator) Submit(item campaign.WorkItem) {
	if run := c.opened(); run != nil {
		run.Submit(item)
	}
}

// Drain returns the run's results, or nothing when the run failed or never
// started; Err says which.
func (c *Coordinator) Drain() []campaign.ItemResult {
	run := c.opened()
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
// halted run is not a failure).
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// opened is the run Begin opened, nil before Begin or when it failed.
func (c *Coordinator) opened() *Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.run
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
		opts:        c.opts,
		workers:     workers,
		parallel:    parallel,
		total:       total,
		itemTimeout: c.itemTimeout,
		maxItems:    c.maxItems,
		o:           o,
		span:        span,
	}
	if r.itemTimeout <= 0 {
		r.itemTimeout = DefaultItemTimeout
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

// attempt is one dispatch of an item to a worker; an item has at most one
// live attempt. The session that sent it holds it (workerSession.held)
// until its result arrives or release ends it.
type attempt struct {
	item  campaign.WorkItem
	start time.Time
	// span is the coordinator-side "item" span for this attempt; the
	// worker's trace fragment is stitched under it on acceptance. Every
	// end of the attempt must End it, or its stitched children would
	// reference a span the trace file never defines.
	span *obs.Span
}

// Run is one coordinator execution in flight, between Start and Drain.
type Run struct {
	opts    Options
	workers int
	// parallel bounds the items one worker holds at once.
	parallel    int
	total       int
	itemTimeout time.Duration
	maxItems    int
	o           *obs.Observer
	span        *obs.Span
	journal     *Journal
	q           *sched.Queue[campaign.WorkItem]
	wake        chan struct{} // see queue.go
	// work is closed by the first push: until there is an item to run no
	// slot obtains a worker, so a run whose every item arrives with a
	// stored result starts none.
	work     chan struct{}
	workOnce sync.Once
	// journaled names the tests the checkpoint file already had a
	// completed record for when this run opened it; a stored result for
	// one of them is not journaled again.
	journaled map[string]bool
	// done is the campaign's completion step; it decides which parameters
	// to broadcast as quarantined, and has its own lock.
	done *campaign.Completion
	wg   sync.WaitGroup

	mu          sync.Mutex
	results     map[int]campaign.ItemResult // one per item resolved this run
	failures    map[int]int                 // charged attempts per item
	sessions    map[int]*workerSession
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
	r.failures = make(map[int]int)
	r.sessions = make(map[int]*workerSession)
	r.done = campaign.NewCompletion(r.opts.App, r.opts.QuarantineThreshold, r.opts.Profile, r.o)
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
	if item.Stored != nil {
		r.mu.Lock()
		r.results[item.ID] = *item.Stored
		r.mu.Unlock()
		r.complete(*item.Stored, true, 0, 0)
		return
	}
	r.push(item)
	r.o.GaugeSet(obs.MQueueDepth, int64(r.q.Len()), "app", r.opts.App)
}

// Stalls returns 0: nothing watches a worker's silence. It is kept only
// for the benchmark module, which reads it, and goes with ROADMAP item 1.
func (r *Run) Stalls() int64 { return 0 }

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
	r.journaled = make(map[string]bool)
	for _, rec := range recs {
		if rec.Kind == KindDone && rec.Result != nil {
			r.journaled[rec.Test] = true
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

	ready := false
	spawned := time.Now()
	itemsDone := 0

	// lost tears the session down after the worker is lost or killed and
	// releases what it held, charging the attempts charged picks (nil:
	// all, as any of them may have killed the worker).
	lost := func(reason string, charged func(*attempt) bool) sessionOutcome {
		sess.kill()
		o.Event(obs.EvWorkerCrash,
			obs.String("app", app), obs.Int("worker", int64(slot)),
			obs.String("reason", reason))
		wspan.SetAttr(obs.String("end", reason), obs.Int("items", int64(itemsDone)))
		r.release(sess, reason, charged)
		return sessCrashed
	}

	tickEvery := r.itemTimeout / 8
	if tickEvery > time.Second {
		tickEvery = time.Second
	}
	if tickEvery < 5*time.Millisecond {
		tickEvery = 5 * time.Millisecond
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()

	for {
		if ready && !r.stopped() {
			for len(sess.held) < r.parallel {
				item, ok := r.q.TryPop()
				if !ok {
					break
				}
				o.GaugeSet(obs.MQueueDepth, int64(r.q.Len()), "app", app)
				a := &attempt{item: item, start: time.Now()}
				sess.held[item.ID] = a
				if err := sess.send(Msg{Type: MsgRun, Item: &item}); err != nil {
					// The item never reached the worker: it alone goes
					// back for free, and the broken pipe is a crash.
					return lost("crash", func(b *attempt) bool { return b != a })
				}
				o.Event(obs.EvItemDispatch,
					obs.String("app", app),
					obs.Int("item", int64(item.ID)),
					obs.String("test", item.Test),
					obs.Int("worker", int64(slot)))
				a.span = o.StartSpan("item", wspan.ID(),
					obs.String("app", app),
					obs.String("test", item.Test),
					obs.Int("item", int64(item.ID)))
			}
			if r.q.Len() > 0 {
				// Full with items still queued: the push that woke this
				// session may have been the only pulse, so pass it on.
				r.pulse()
			}
		}
		if r.stopped() {
			// Complete, halted, or failed elsewhere. All results are
			// either in or abandoned with the run; drop the worker.
			sess.bye(len(sess.held) == 0)
			r.release(sess, "abandoned", nil)
			wspan.SetAttr(obs.String("end", "done"), obs.Int("items", int64(itemsDone)))
			o.Event(obs.EvWorkerDone,
				obs.String("app", app), obs.Int("worker", int64(slot)))
			return sessDone
		}

		// Only a session that can take an item waits for a push: a full or
		// not-yet-ready one would swallow the pulse an idle one needs.
		var wake <-chan struct{}
		if ready && len(sess.held) < r.parallel {
			wake = r.wake
		}
		select {
		case m, ok := <-sess.msgs:
			if !ok {
				if !ready {
					sess.kill()
					r.neverReady(slot, "worker exited before ready")
					return sessSpawnFail
				}
				if sess.readErr != "" {
					return lost(sess.readErr, nil)
				}
				return lost("crash", nil)
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
			case MsgResult:
				if m.Result == nil {
					return lost("crash", nil)
				}
				if a := sess.held[m.Result.ID]; a != nil {
					itemsDone++
					r.recordResult(sess, a, *m.Result, m.Spans)
				}
			}
			// Any other type, such as an older worker's heartbeat, is
			// ignored: a worker is alive while its pipe is open.
		case <-tick.C:
			if !ready {
				if time.Since(spawned) > r.itemTimeout {
					sess.kill()
					r.neverReady(slot, "worker not ready within item timeout")
					return sessSpawnFail
				}
				break
			}
			now := time.Now()
			for _, a := range sess.held {
				if now.Sub(a.start) > r.itemTimeout {
					// The overdue item is the suspect: it alone is
					// charged. The worker is killed (the item's goroutine
					// cannot be), so the others requeue for free.
					return lost("timeout", func(b *attempt) bool { return b == a })
				}
			}
		case <-wake:
		case <-r.doneCh:
		}
	}
}

// addSession registers a live worker for quarantine broadcasts, and sends
// it the hints it missed (a respawned worker starts with a clean slate; so
// does every worker of a resumed run).
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

// release ends every attempt sess holds: the one way an attempt ends
// other than by its result. An attempt is charged a failed try (see
// retryOrGiveUp) when charged, nil for every one, says so, and requeues
// for free when it does not. Once the run has stopped, everything is
// abandoned with it. Each attempt's span ends marked with which of these
// happened.
func (r *Run) release(sess *workerSession, reason string, charged func(*attempt) bool) {
	r.mu.Lock()
	abandon := r.finished
	r.mu.Unlock()
	held := sess.held
	sess.held = nil
	for _, a := range held {
		end := reason
		if abandon {
			end = "abandoned"
		} else if charged != nil && !charged(a) {
			end = "requeued"
		}
		a.span.SetAttr(obs.String("end", end))
		a.span.End()
		switch {
		case abandon:
		case end == reason:
			r.retryOrGiveUp(a.item, reason)
		default:
			r.push(a.item)
		}
	}
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

// recordResult ends attempt a, held by sess, with the worker's result and
// trace fragment.
func (r *Run) recordResult(sess *workerSession, a *attempt, res campaign.ItemResult, frag []obs.SpanRecord) {
	defer a.span.End()
	elapsed := time.Since(a.start)
	delete(sess.held, res.ID)
	r.mu.Lock()
	r.results[res.ID] = res
	r.mu.Unlock()
	r.complete(res, false, elapsed.Seconds(), a.item.PredSeconds,
		obs.Int("worker", int64(sess.slot)))
	r.stitchSpans(a.span, a.start, frag)
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
	if r.journal != nil && !(stored && r.journaled[res.Test]) {
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
func (r *Run) retryOrGiveUp(item campaign.WorkItem, reason string) {
	r.mu.Lock()
	r.failures[item.ID]++
	n := r.failures[item.ID]
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
	r.results[res.ID] = res
	r.mu.Unlock()
	r.maybeFinish()
}

// maybeFinish closes the run when every item is resolved, or halts it
// once maxItems are.
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
	if r.maxItems > 0 && len(r.results) >= r.maxItems {
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
	slot int
	// held is the attempts dispatched to this worker and not yet ended,
	// by item ID. Only the session's own goroutine touches it.
	held       map[int]*attempt
	stdin      io.WriteCloser
	cmd        *exec.Cmd
	msgs       chan Msg
	readerDone chan struct{}
	killOnce   sync.Once
	// sendMu serializes send, which encodes each frame into line.
	sendMu sync.Mutex
	line   []byte
	// readErr is why readLoop stopped before the worker's EOF, when a
	// frame did not decode or was too long; it is set before msgs closes.
	readErr string
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
		slot:       slot,
		held:       make(map[int]*attempt),
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
	line, err := canonjson.Append(s.line[:0], &m)
	if err != nil {
		return err
	}
	s.line = append(line, '\n')
	_, err = s.stdin.Write(s.line)
	return err
}

// readLoop streams worker messages into s.msgs until EOF or a corrupt
// frame (a worker that has lost protocol framing is as good as dead),
// which it names in s.readErr. A last line cut short by EOF is a worker
// that died mid-write: a crash, as its EOF says.
func (s *workerSession) readLoop(rd io.Reader) {
	defer close(s.readerDone)
	defer close(s.msgs)
	lr := newLineReader(rd)
	defer lr.close()
	var in canonjson.Interner
	for {
		line, err := lr.next()
		if err != nil {
			if err == errLineTooLong {
				s.readErr = "corrupt frame"
			}
			return
		}
		var m Msg
		if err := canonjson.Decode(line, &m, &in); err != nil {
			if !lr.torn {
				s.readErr = "corrupt frame"
			}
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
