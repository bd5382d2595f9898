package dist

import "zebraconf/internal/core/campaign"

// The coordinator's work queue is Run.q, the same sched.Queue the
// in-process pipeline dispatches from. A session loop also waits on worker
// messages and timers, so it cannot block in Pop: it takes items with
// TryPop and is pulsed awake through Run.wake when there is something new
// to look at.

// push enqueues one item — a first submission or a retry alike — at its
// predicted-duration priority and wakes an idle session (the first push
// also releases the slots to obtain their workers).
func (r *Run) push(item campaign.WorkItem) {
	r.q.Push(item, item.PredSeconds)
	r.workOnce.Do(func() { close(r.work) })
	r.pulse()
}

// pulse wakes one waiting session without blocking.
func (r *Run) pulse() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}
