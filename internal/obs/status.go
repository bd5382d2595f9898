package obs

import (
	"sort"
	"sync"
	"time"
)

// Status holds the live tables of a running campaign for the /api
// endpoints and the watch dashboard: current phase, item queue, worker
// health, the evolving unsafe-parameter table, and the calibration for
// an ETA derived from the sched duration predictions the items were
// ranked with. It keeps no tallies — those are read from the registry
// when a snapshot is taken — and has no exported mutators: Observer.Event
// folds the catalog's events into it, and Observer.Campaign / Workers /
// Params render it. Every method is nil-safe.
type Status struct {
	mu sync.Mutex

	// base is the app plus the registry's campaign tallies at this
	// campaign's start, negated: a snapshot adds the current values to
	// get this campaign's share (an Observer may see one app twice).
	base    CampaignStatus
	start   time.Time
	phases  []string // open phases, innermost last
	slots   int
	done    bool
	elapsed float64 // frozen at campaign_finish

	items map[int]*itemState

	// Prediction calibration: sum(actual)/sum(predicted) over completed
	// items that carried a prediction — duration-weighted, so an item
	// with a microscopic prediction cannot blow up the ratio the way a
	// per-item mean would — plus a plain mean duration as the fallback
	// estimate for items without one.
	actSum, predSum float64
	doneSecs, doneN float64

	workers map[int]*workerState
	params  map[string]*paramState
}

type itemState struct {
	test    string
	pred    float64
	state   int // 0 queued, 1 running, 2 done
	started time.Time
}

type workerState struct {
	pid        int
	state      string // spawned | ready | stalled | crashed | done
	lastHB     time.Time
	hbSeen     bool
	inflight   []int
	itemsDone  int64
	executions int64
	goroutines int
	heapBytes  uint64
	stalls     int64
	spawns     int64
}

type paramState struct {
	verdicts    int64
	tests       map[string]bool
	minP        float64
	quarantined bool
}

// NewStatus returns an empty tracker.
func NewStatus() *Status {
	return &Status{
		items:   make(map[int]*itemState),
		workers: make(map[int]*workerState),
		params:  make(map[string]*paramState),
	}
}

// campaignBegin resets the tables for one campaign.
func (s *Status) campaignBegin(base CampaignStatus) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Field-by-field reset: a struct assignment would clobber the held
	// mutex.
	s.base = base
	s.start = time.Now()
	s.phases = nil
	s.slots = 0
	s.done = false
	s.elapsed = 0
	s.items = make(map[int]*itemState)
	s.actSum, s.predSum = 0, 0
	s.doneSecs, s.doneN = 0, 0
	s.workers = make(map[int]*workerState)
	s.params = make(map[string]*paramState)
}

// campaignFinish marks the run done and freezes the elapsed clock at
// the makespan the campaign reported.
func (s *Status) campaignFinish(elapsed float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	s.elapsed = elapsed
	s.phases = nil
}

func (s *Status) setSlots(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots = n
}

// phaseStart pushes a phase onto the open-phase stack.
func (s *Status) phaseStart(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phases = append(s.phases, name)
}

// phaseFinish pops the named phase (phases can overlap in streamed
// mode, so it removes the newest match rather than asserting LIFO).
func (s *Status) phaseFinish(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.phases) - 1; i >= 0; i-- {
		if s.phases[i] == name {
			s.phases = append(s.phases[:i], s.phases[i+1:]...)
			return
		}
	}
}

// itemQueued registers a work item awaiting execution with its
// predicted duration in seconds (0 when no profile prediction exists).
func (s *Status) itemQueued(id int, test string, pred float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[id] = &itemState{test: test, pred: pred}
}

// itemStart marks an item running. Re-marking a running item is a no-op.
func (s *Status) itemStart(id int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	it := s.items[id]
	if it == nil {
		it = &itemState{}
		s.items[id] = it
	}
	if it.state == 0 {
		it.state = 1
		it.started = time.Now()
	}
}

// itemRequeued returns a crashed/timed-out item to the queue.
func (s *Status) itemRequeued(id int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if it := s.items[id]; it != nil && it.state == 1 {
		it.state = 0
	}
}

// itemDone marks an item resolved and feeds the prediction calibration.
// A duplicate completion is ignored.
func (s *Status) itemDone(id int, secs float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	it := s.items[id]
	if it == nil {
		it = &itemState{}
		s.items[id] = it
	}
	if it.state == 2 {
		return
	}
	it.state = 2
	if secs > 0 {
		s.doneSecs += secs
		s.doneN++
		if it.pred > 0 {
			s.actSum += secs
			s.predSum += it.pred
		}
	}
}

// paramVerdict records one unsafe instance verdict in the live
// parameter table.
func (s *Status) paramVerdict(param, test string, p float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.params[param]
	if ps == nil {
		ps = &paramState{tests: make(map[string]bool), minP: p}
		s.params[param] = ps
	}
	ps.verdicts++
	ps.tests[test] = true
	if p < ps.minP {
		ps.minP = p
	}
}

// paramQuarantined flags a parameter hit by the frequent-failer rule.
func (s *Status) paramQuarantined(param string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.params[param]
	if ps == nil {
		ps = &paramState{tests: make(map[string]bool)}
		s.params[param] = ps
	}
	ps.quarantined = true
}

func (s *Status) worker(slot int) *workerState {
	w := s.workers[slot]
	if w == nil {
		w = &workerState{state: "spawned"}
		s.workers[slot] = w
	}
	return w
}

// workerSpawned records a worker subprocess being started (again).
func (s *Status) workerSpawned(slot, pid int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	w.state = "spawned"
	w.pid = pid
	w.spawns++
	w.inflight = nil
}

// workerReady records the worker's init handshake completing.
func (s *Status) workerReady(slot, pid int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	w.state = "ready"
	if pid != 0 {
		w.pid = pid
	}
}

// workerHeartbeat records one heartbeat payload.
func (s *Status) workerHeartbeat(slot, pid int, inflight []int, execs int64, goroutines int, heap uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	if w.state == "spawned" || w.state == "stalled" {
		w.state = "ready"
	}
	if pid != 0 {
		w.pid = pid
	}
	w.lastHB = time.Now()
	w.hbSeen = true
	w.inflight = append(w.inflight[:0], inflight...)
	w.executions = execs
	w.goroutines = goroutines
	w.heapBytes = heap
}

// workerItemDone bumps the per-worker completed-item tally.
func (s *Status) workerItemDone(slot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.worker(slot).itemsDone++
	s.mu.Unlock()
}

// workerStalled marks a worker silent past the stall threshold.
func (s *Status) workerStalled(slot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	w.state = "stalled"
	w.stalls++
}

// workerRecovered clears a stall once heartbeats resume.
func (s *Status) workerRecovered(slot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.worker(slot); w.state == "stalled" {
		w.state = "ready"
	}
}

// workerGone records a worker session ending, in state "done" or
// "crashed".
func (s *Status) workerGone(slot int, state string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	w.state = state
	w.inflight = nil
}

// CampaignStatus is the /api/campaign snapshot.
type CampaignStatus struct {
	App            string  `json:"app"`
	Phase          string  `json:"phase"`
	Done           bool    `json:"done"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	EtaSeconds     float64 `json:"eta_seconds"`

	ItemsQueued  int `json:"items_queued"`
	ItemsRunning int `json:"items_running"`
	ItemsDone    int `json:"items_done"`

	Instances     int64 `json:"instances_total"`
	InstancesDone int64 `json:"instances_done"`

	Executions      int64   `json:"executions"`
	ExecutionsSaved int64   `json:"executions_saved"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	ExecRate        float64 `json:"executions_per_second"`

	Safe        int64 `json:"safe"`
	Unsafe      int64 `json:"unsafe"`
	Filtered    int64 `json:"filtered"`
	HomoInvalid int64 `json:"homo_invalid"`

	UnsafeParams int `json:"unsafe_params"`
	Workers      int `json:"workers"`
	// Slots is the parallel execution budget the ETA divides across
	// (workers x per-worker parallelism in dist mode) — also what the
	// perf sampler derives instantaneous utilization from.
	Slots int `json:"slots"`
}

// WorkerStatus is one /api/workers row.
type WorkerStatus struct {
	Slot           int     `json:"slot"`
	PID            int     `json:"pid,omitempty"`
	State          string  `json:"state"`
	LastHeartbeatS float64 `json:"last_heartbeat_s"` // seconds since last heartbeat; -1 when none seen
	Inflight       []int   `json:"inflight,omitempty"`
	ItemsDone      int64   `json:"items_done"`
	Executions     int64   `json:"executions"`
	Goroutines     int     `json:"goroutines,omitempty"`
	HeapBytes      uint64  `json:"heap_bytes,omitempty"`
	Stalls         int64   `json:"stalls"`
	Spawns         int64   `json:"spawns"`
}

// ParamStatus is one /api/params row: a parameter with at least one
// unsafe verdict (or a quarantine flag) so far.
type ParamStatus struct {
	Param          string   `json:"param"`
	UnsafeVerdicts int64    `json:"unsafe_verdicts"`
	Tests          []string `json:"tests"`
	MinP           float64  `json:"min_p"`
	Quarantined    bool     `json:"quarantined,omitempty"`
}

// tally adds sign × the registry's campaign tallies for cs.App to cs:
// the one copy of the counts every live view and the perf summary show.
// Executions are the pre-runs', counted per execution, plus the items',
// counted per item_complete.
func (o *Observer) tally(cs CampaignStatus, sign int64) CampaignStatus {
	reg := o.Metrics
	if reg == nil || cs.App == "" { // no registry, or no campaign yet
		return cs
	}
	cs.Instances += sign * reg.GaugeValue(MInstancesTotal, "app", cs.App)
	cs.InstancesDone += sign * reg.GaugeValue(MInstancesDone, "app", cs.App)
	cs.Executions += sign * (reg.CounterValue(MExecutions, "app", cs.App, "arm", "prerun") +
		reg.CounterValue(MItemExecutions, "app", cs.App))
	cs.ExecutionsSaved += sign * reg.GaugeValue(MCacheSaved, "app", cs.App)
	cs.Safe += sign * reg.CounterValue(MVerdicts, "app", cs.App, "verdict", "safe")
	cs.Unsafe += sign * reg.CounterValue(MVerdicts, "app", cs.App, "verdict", "unsafe")
	cs.Filtered += sign * reg.CounterValue(MVerdicts, "app", cs.App, "verdict", "filtered")
	cs.HomoInvalid += sign * reg.CounterValue(MVerdicts, "app", cs.App, "verdict", "homo-invalid")
	return cs
}

// Campaign renders the live campaign snapshot — what /api/campaign, the
// sampler, -mode watch and the -progress line all show: the status
// tables' view plus this campaign's tallies from the registry.
func (o *Observer) Campaign() CampaignStatus {
	if o == nil {
		return CampaignStatus{}
	}
	cs := o.tally(o.Status.campaign(), 1)
	if cs.ElapsedSeconds > 0 {
		cs.ExecRate = float64(cs.Executions) / cs.ElapsedSeconds
	}
	if total := cs.ExecutionsSaved + cs.Executions; total > 0 {
		cs.CacheHitRate = float64(cs.ExecutionsSaved) / float64(total)
	}
	return cs
}

// Workers renders the per-worker health table, sorted by slot.
func (o *Observer) Workers() []WorkerStatus {
	if o == nil {
		return nil
	}
	return o.Status.workerTable()
}

// Params renders the live unsafe-parameter table, sorted by name.
func (o *Observer) Params() []ParamStatus {
	if o == nil {
		return nil
	}
	return o.Status.paramTable()
}

// campaign renders everything in the snapshot but the tallies, which it
// leaves at their negated start-of-campaign values. The ETA walks the
// item table: calibrated predicted seconds for queued items, calibrated
// remainder for running ones, divided by the effective slot count. When
// no predictions exist (first run, cold profile) the mean duration of
// completed items stands in.
func (s *Status) campaign() CampaignStatus {
	if s == nil {
		return CampaignStatus{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	cs := s.base
	cs.Done = s.done
	cs.UnsafeParams = len(s.params)
	cs.Workers = len(s.workers)
	cs.Slots = s.slots
	cs.Phase = "idle"
	if len(s.phases) > 0 {
		cs.Phase = s.phases[len(s.phases)-1]
	} else if s.done {
		cs.Phase = "done"
	} else if cs.App != "" {
		cs.Phase = "starting"
	}
	cs.ElapsedSeconds = s.elapsed
	if !s.done && !s.start.IsZero() {
		cs.ElapsedSeconds = time.Since(s.start).Seconds()
	}

	calib := 1.0
	if s.predSum > 0 {
		calib = s.actSum / s.predSum
	}
	fallback := 0.0
	if s.doneN > 0 {
		fallback = s.doneSecs / s.doneN
	}
	now := time.Now()
	remaining := 0.0
	for _, it := range s.items {
		est := it.pred * calib
		if est <= 0 {
			est = fallback
		}
		switch it.state {
		case 0:
			cs.ItemsQueued++
			remaining += est
		case 1:
			cs.ItemsRunning++
			if rem := est - now.Sub(it.started).Seconds(); rem > 0 {
				remaining += rem
			}
		case 2:
			cs.ItemsDone++
		}
	}
	unfinished := cs.ItemsQueued + cs.ItemsRunning
	if !s.done && unfinished > 0 {
		slots := s.slots
		if slots <= 0 {
			slots = 1
		}
		if unfinished < slots {
			slots = unfinished
		}
		cs.EtaSeconds = remaining / float64(slots)
	}
	return cs
}

func (s *Status) workerTable() []WorkerStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStatus, 0, len(s.workers))
	for slot, w := range s.workers {
		ws := WorkerStatus{
			Slot:           slot,
			PID:            w.pid,
			State:          w.state,
			LastHeartbeatS: -1,
			Inflight:       append([]int(nil), w.inflight...),
			ItemsDone:      w.itemsDone,
			Executions:     w.executions,
			Goroutines:     w.goroutines,
			HeapBytes:      w.heapBytes,
			Stalls:         w.stalls,
			Spawns:         w.spawns,
		}
		if w.hbSeen {
			ws.LastHeartbeatS = time.Since(w.lastHB).Seconds()
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

func (s *Status) paramTable() []ParamStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ParamStatus, 0, len(s.params))
	for name, ps := range s.params {
		row := ParamStatus{
			Param:          name,
			UnsafeVerdicts: ps.verdicts,
			MinP:           ps.minP,
			Quarantined:    ps.quarantined,
		}
		for t := range ps.tests {
			row.Tests = append(row.Tests, t)
		}
		sort.Strings(row.Tests)
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Param < out[j].Param })
	return out
}
