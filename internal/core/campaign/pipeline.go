package campaign

import (
	"sync"
	"time"

	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// pipeline is phases 1 and 2 of one campaign: one policy-aware queue
// holds both pending pre-runs and ready work items, and a single pool of
// Parallelism workers drains it. A test's work item is pushed (or
// Submitted to the Distributor) the moment its pre-run finishes, so
// instance execution overlaps the pre-run tail. The queue's policy orders
// ready items, and the one pool bounds total concurrency.
type pipeline struct {
	app  *harness.App
	gen  *testgen.Generator
	run  *runner.Runner
	opts Options
	o    *obs.Observer
	// force maps a test name to the parameters its work item must
	// generate instances for even without pre-run read evidence (the
	// coverage fallback; see coveragePlan).
	force map[string][]string
	tests []*harness.UnitTest

	span    obs.SpanID // the "instances" phase, parent of every item's spans
	pres    []testgen.PreRun
	results []ItemResult
	done    *Completion
	endPre  func()
	q       *sched.Queue[streamTask]

	mu       sync.Mutex
	preLeft  int
	itemLeft int
	preLeaks int64 // pre-runs that abandoned a goroutine
}

// streamTask is one unit of pipeline work: a pre-run (by test index) or
// a ready work item.
type streamTask struct {
	prerun bool
	idx    int
	item   WorkItem
}

// execute runs the pipeline to completion, leaving the pre-run reports in
// p.pres and the pre-runs' abandoned goroutines in p.preLeaks. phase opens
// a campaign phase and returns its span and the func that ends it.
func (p *pipeline) execute(phase func(name string) (obs.SpanID, func())) []ItemResult {
	n := len(p.tests)
	// Both phase spans open up front — the phases interleave — and each
	// phase's timer stops when its last unit of work finishes.
	_, p.endPre = phase("prerun")
	span, endInstances := phase("instances")
	p.span = span
	p.pres = make([]testgen.PreRun, n)
	p.results = make([]ItemResult, n)
	p.preLeft, p.itemLeft = n, n
	p.q = sched.NewQueue[streamTask](p.opts.SchedPolicy, p.o, p.app.Name, "stream")

	dist := p.opts.Distributor
	if dist != nil {
		dist.Begin(span, n)
	} else {
		p.done = NewCompletion(p.app.Name, p.opts.QuarantineThreshold, p.opts.Profile, p.o)
	}
	for i, t := range p.tests {
		// A pre-run's priority is its item's profiled duration: under
		// LPT the pre-runs that unlock the longest items go first, so
		// those items enter the pipeline earliest.
		pred, _ := p.opts.Profile.Predict(p.app.Name, t.Name)
		p.q.Push(streamTask{prerun: true, idx: i}, pred)
	}
	if n == 0 {
		p.endPre()
		p.q.Close()
	}

	var wg sync.WaitGroup
	for w := 0; w < p.opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := p.q.Pop()
				if !ok {
					return
				}
				if t.prerun {
					p.doPreRun(t.idx)
				} else {
					p.doItem(t.item)
				}
			}
		}()
	}
	wg.Wait()
	defer endInstances()
	if dist != nil {
		return dist.Drain()
	}
	return p.results
}

// doPreRun executes one pre-run, builds its work item and releases it at
// once. The last pre-run also closes the phase-1 timer (and, in dist mode,
// the queue — nothing else will be pushed).
func (p *pipeline) doPreRun(idx int) {
	pre, d, abandoned := p.run.PreRunTimed(p.tests[idx])
	p.pres[idx] = pre
	item := WorkItem{ID: idx, Test: pre.Test, PreRun: pre, ForceParams: p.force[pre.Test]}
	item.PredSeconds = p.predict(item, d.Seconds())
	queued := []obs.Attr{obs.String("app", p.app.Name), obs.Int("item", int64(item.ID)),
		obs.String("test", item.Test), obs.Float("pred_s", item.PredSeconds)}
	if abandoned {
		queued = append(queued, obs.Int("leaked", 1))
	}
	p.o.Event(obs.EvItemQueued, queued...)

	p.mu.Lock()
	p.preLeft--
	last := p.preLeft == 0
	if abandoned {
		p.preLeaks++
	}
	p.mu.Unlock()
	if last {
		p.endPre()
	}
	p.release(item)
	if last && p.opts.Distributor != nil {
		p.q.Close()
	}
}

// predict estimates one item's wall clock in seconds: the profile's
// estimate for this (app, test) when warm — per-trial cost × the
// expected-trial EWMA, so LPT ranks by what sequential stopping actually
// costs, not the worst case — else the pre-run duration scaled by the
// item's instance count (each instance re-runs the test at least once),
// the cold-campaign fallback.
func (p *pipeline) predict(item WorkItem, preSeconds float64) float64 {
	if s, ok := p.opts.Profile.Predict(p.app.Name, item.Test); ok {
		return s
	}
	n := p.gen.Count(item.PreRun, item.instancesOptions(p.opts))
	return preSeconds * float64(n+1)
}

// release hands one built item to whatever completes it: the Distributor
// in dist mode, else this pipeline's own queue at the item's
// predicted-duration priority. It is the one place a stored result stands
// in for an execution: an item whose test has one carries it from here, and
// completes with it instead of running.
func (p *pipeline) release(item WorkItem) {
	if res, ok := p.opts.Stored[item.Test]; ok {
		// Found by name; the ID is this campaign's, whatever numbered the
		// campaign that stored it.
		res.ID, res.Test = item.ID, item.Test
		item.Stored = &res
	}
	if d := p.opts.Distributor; d != nil {
		d.Submit(item)
		return
	}
	p.q.Push(streamTask{item: item}, item.PredSeconds)
}

// doItem completes one work item on the in-process pool (the distributed
// coordinator dispatches and completes its own, with worker attribution):
// it executes the item, or takes the stored result the item arrived with,
// and hands the result to the campaign's one completion step
// (Completion.Complete). What §4's rule makes of the result is quarantined
// in the generator for the items still to come. The last item closes the
// queue and with it the worker pool.
func (p *pipeline) doItem(item WorkItem) {
	var res ItemResult
	var secs float64
	stored := item.Stored != nil
	if stored {
		res = *item.Stored
	} else {
		t0 := time.Now()
		p.o.Event(obs.EvItemDispatch,
			obs.String("app", p.app.Name),
			obs.Int("item", int64(item.ID)),
			obs.String("test", item.Test))
		res = ExecuteItem(p.app, p.gen, p.run, p.opts, p.span, item)
		secs = time.Since(t0).Seconds()
	}
	p.results[item.ID] = res
	for _, param := range p.done.Complete(res, secs, item.PredSeconds, stored) {
		p.gen.Quarantine(param)
	}

	p.mu.Lock()
	p.itemLeft--
	done := p.itemLeft == 0
	p.mu.Unlock()
	if done {
		p.q.Close()
	}
}
