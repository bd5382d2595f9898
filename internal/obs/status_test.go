package obs

import "testing"

// statusObserver returns an Observer with a registry and an item table
// attached, one campaign for app started on it, and slots set.
func statusObserver(app string, slots int) *Observer {
	o := New()
	o.Status = NewStatus()
	o.Event(EvCampaignStart, String("app", app))
	o.SetSlots(slots)
	return o
}

func item(id int) Attr { return Int("item", int64(id)) }

// TestStatusItemLifecycle covers idempotence: duplicate completions and
// re-marking running items must not double count, and requeued items
// return to the queue.
func TestStatusItemLifecycle(t *testing.T) {
	o := statusObserver("fake", 1)
	o.Event(EvItemQueued, item(0), String("test", "TestA"), Float("pred_s", 1))
	o.Event(EvItemDispatch, item(0))
	o.Event(EvItemDispatch, item(0))
	o.Event(EvItemComplete, item(0), Float("elapsed_s", 2))
	o.Event(EvItemComplete, item(0), Float("elapsed_s", 2))
	cs := o.Campaign()
	if cs.ItemsDone != 1 {
		t.Fatalf("items done %d, want 1", cs.ItemsDone)
	}

	o.Event(EvItemQueued, item(1), String("test", "TestB"), Float("pred_s", 1))
	o.Event(EvItemDispatch, item(1))
	o.Event(EvItemRetried, item(1))
	cs = o.Campaign()
	if cs.ItemsQueued != 1 || cs.ItemsRunning != 0 {
		t.Fatalf("after requeue: queued=%d running=%d", cs.ItemsQueued, cs.ItemsRunning)
	}

	// A retry moves only a running item, a dispatch only a queued one.
	o.Event(EvItemRetried, item(2))
	o.Event(EvItemDispatch, item(0))
	if cs = o.Campaign(); cs.ItemsQueued != 1 || cs.ItemsRunning != 0 || cs.ItemsDone != 1 {
		t.Fatalf("after a stray retry and dispatch: %+v", cs)
	}
}

// TestCampaignCountsThisCampaign: the campaign snapshot counts only the
// campaign in progress — the registry's pre-run and item executions and
// saved executions relative to their values at its campaign_start, so a
// second campaign for the same app starts again from zero.
func TestCampaignCountsThisCampaign(t *testing.T) {
	o := New()
	o.Status = NewStatus()
	o.CounterAdd(MExecutions, 3, "app", "minihdfs", "arm", "prerun", "outcome", "pass") // an earlier campaign's
	o.Event(EvItemComplete, String("app", "minihdfs"), item(9), Int("executions", 7), Int("executions_saved", 2))
	o.Event(EvCampaignStart, String("app", "minihdfs"))
	if cs := o.Campaign(); cs.App != "minihdfs" || cs.Executions != 0 || cs.ExecutionsSaved != 0 {
		t.Fatalf("at campaign_start: %+v, want minihdfs with zero tallies", cs)
	}

	o.CounterAdd(MExecutions, 4, "app", "minihdfs", "arm", "prerun", "outcome", "pass")
	o.CounterAdd(MExecutions, 50, "app", "minihdfs", "arm", "hetero", "outcome", "pass") // counted by its item
	o.CounterAdd(MExecutions, 6, "app", "other", "arm", "prerun", "outcome", "pass")     // another app's
	o.Event(EvItemComplete, String("app", "minihdfs"), item(0), Int("executions", 5), Int("executions_saved", 1))
	if cs := o.Campaign(); cs.Executions != 4+5 || cs.ExecutionsSaved != 1 {
		t.Fatalf("executions %d, saved %d; want 9 and 1", cs.Executions, cs.ExecutionsSaved)
	}

	o.Event(EvCampaignFinish, String("app", "minihdfs"), Float("elapsed_s", 1))
	o.Event(EvCampaignStart, String("app", "minihdfs"))
	if cs := o.Campaign(); cs.Executions != 0 || cs.ExecutionsSaved != 0 || cs.ItemsDone != 0 {
		t.Fatalf("second campaign starts at %+v, want zero tallies and no items", cs)
	}
}
