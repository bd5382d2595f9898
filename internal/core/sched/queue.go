package sched

import (
	"sync"
	"time"

	"zebraconf/internal/obs"
)

// Queue is phase 2's one dispatch queue, shared by the in-process pipeline
// and the distributed coordinator: producers Push tasks with a predicted
// duration, workers Pop (or TryPop) them, and the policy decides which
// ready task goes next — FIFO pops in arrival order, LPT pops the longest
// predicted task first, ties to the earliest push. Pop blocks until a
// task is available or the queue is closed and empty.
//
// When an observer is attached, every pop records the task's queue wait
// (MSchedQueueWait) and every pop that overtakes an earlier-arrived task
// counts toward MSchedReordered — the statistics that make scheduler
// wins attributable instead of folded into phase totals.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	policy Policy
	tasks  []queued[T]
	seq    int
	closed bool

	o          *obs.Observer
	app, stage string
}

type queued[T any] struct {
	v    T
	pred float64
	seq  int
	enq  time.Time
}

// NewQueue builds an empty queue dispatching under policy. o may be nil.
func NewQueue[T any](policy Policy, o *obs.Observer, app, stage string) *Queue[T] {
	q := &Queue[T]{policy: policy, o: o, app: app, stage: stage}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues one task with its predicted duration in seconds.
func (q *Queue[T]) Push(v T, pred float64) {
	q.mu.Lock()
	q.tasks = append(q.tasks, queued[T]{v: v, pred: pred, seq: q.seq, enq: time.Now()})
	q.seq++
	q.mu.Unlock()
	q.cond.Signal()
}

// Pop blocks until a task is ready and returns the policy's pick;
// ok=false means the queue was closed and fully drained.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	for len(q.tasks) == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.take()
}

// TryPop is Pop without the wait: ok=false means nothing is queued right
// now (more may still be pushed unless the queue is closed).
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	return q.take()
}

// take removes and returns the policy's pick, recording its queue wait
// and whether it overtook an older task. Called with q.mu held; releases
// it.
func (q *Queue[T]) take() (v T, ok bool) {
	if len(q.tasks) == 0 {
		q.mu.Unlock()
		return v, false
	}
	best := 0
	if q.policy == LPT {
		for i := 1; i < len(q.tasks); i++ {
			if q.tasks[i].pred > q.tasks[best].pred {
				best = i
			}
		}
	}
	t := q.tasks[best]
	// Tasks append in seq order, so index 0 holds the oldest waiter;
	// picking any other index overtakes it.
	jumped := best != 0
	copy(q.tasks[best:], q.tasks[best+1:])
	q.tasks = q.tasks[:len(q.tasks)-1]
	q.mu.Unlock()

	q.o.Observe(obs.MSchedQueueWait, time.Since(t.enq).Seconds(), "app", q.app, "stage", q.stage)
	if jumped {
		q.o.CounterAdd(obs.MSchedReordered, 1, "app", q.app)
	}
	return t.v, true
}

// Close marks the queue complete: Pops drain the remaining tasks and
// then return ok=false. Pushing after Close is a programming error.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len returns the number of tasks currently waiting.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}
