package obs

import "sync"

// Status tracks the running campaign's work items for the perf sampler:
// each item's queued, running or done state, and the slot count its
// utilization divides by. It keeps no tallies — those are read from the
// registry when a snapshot is taken — and has no exported mutators:
// Observer.Event folds the item events into it, and Observer.Campaign
// renders it. Every method is nil-safe.
type Status struct {
	mu sync.Mutex

	// base is the app plus the registry's campaign tallies at this
	// campaign's start, negated: a snapshot adds the current values to
	// get this campaign's share (an Observer may see one app twice).
	base  CampaignStatus
	slots int
	items map[int]itemState
}

type itemState uint8

const (
	itemQueued itemState = iota // the zero value: an item not seen yet reads as queued
	itemRunning
	itemDone
	anyState // setItem's from: whatever state the item is in
)

// NewStatus returns an empty tracker.
func NewStatus() *Status {
	return &Status{items: make(map[int]itemState)}
}

// campaignBegin resets the tracker for one campaign.
func (s *Status) campaignBegin(base CampaignStatus) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
	s.slots = 0
	s.items = make(map[int]itemState)
}

func (s *Status) setSlots(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots = n
}

// setItem moves item id to state to if it is in state from: a dispatch
// moves only a queued item, so re-marking a running one changes nothing,
// and a retry moves only a running one.
func (s *Status) setItem(id int, from, to itemState) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from == anyState || s.items[id] == from {
		s.items[id] = to
	}
}

// CampaignStatus is the live campaign snapshot the perf sampler records:
// the item table's counts and slot setting, plus this campaign's
// executions and saved executions from the registry.
type CampaignStatus struct {
	App string

	ItemsQueued  int
	ItemsRunning int
	ItemsDone    int
	// Slots is the parallel execution budget (workers × per-worker
	// parallelism in dist mode) the sampler derives utilization from.
	Slots int

	Executions      int64
	ExecutionsSaved int64
}

// tally adds sign × the registry's campaign tallies for cs.App to cs:
// the one copy of the counts the sampler and the perf summary show.
// Executions are the pre-runs', counted per execution, plus the items',
// counted per item_complete.
func (o *Observer) tally(cs CampaignStatus, sign int64) CampaignStatus {
	reg := o.Metrics
	if reg == nil || cs.App == "" { // no registry, or no campaign yet
		return cs
	}
	cs.Executions += sign * (reg.CounterValue(MExecutions, "app", cs.App, "arm", "prerun") +
		reg.CounterValue(MItemExecutions, "app", cs.App))
	cs.ExecutionsSaved += sign * reg.GaugeValue(MCacheSaved, "app", cs.App)
	return cs
}

// Campaign renders the live campaign snapshot: the item table's counts
// plus this campaign's tallies from the registry.
func (o *Observer) Campaign() CampaignStatus {
	if o == nil {
		return CampaignStatus{}
	}
	return o.tally(o.Status.campaign(), 1)
}

// campaign renders everything in the snapshot but the tallies, which it
// leaves at their negated start-of-campaign values.
func (s *Status) campaign() CampaignStatus {
	if s == nil {
		return CampaignStatus{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.base
	cs.Slots = s.slots
	for _, st := range s.items {
		switch st {
		case itemQueued:
			cs.ItemsQueued++
		case itemRunning:
			cs.ItemsRunning++
		case itemDone:
			cs.ItemsDone++
		}
	}
	return cs
}
