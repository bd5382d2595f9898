package obs

import (
	"sort"
	"sync"
	"time"
)

// Status tracks the live state of a running campaign for the /api
// endpoints and the watch dashboard: current phase, item queue, worker
// health, the evolving unsafe-parameter table, and an ETA derived from
// the sched duration predictions the items were ranked with. Every
// method is nil-safe so the campaign and coordinator call them
// unconditionally, mirroring the Progress/Tracer convention.
type Status struct {
	mu sync.Mutex

	app     string
	start   time.Time
	phases  []string // open phases, innermost last
	slots   int
	done    bool
	elapsed float64 // frozen at Finish

	items map[int]*itemState

	// Prediction calibration: sum(actual)/sum(predicted) over completed
	// items that carried a prediction — duration-weighted, so an item
	// with a microscopic prediction cannot blow up the ratio the way a
	// per-item mean would — plus a plain mean duration as the fallback
	// estimate for items without one.
	actSum, predSum     float64
	doneSecs, doneN     float64
	instances, instDone int64
	executions, saved   int64
	specRuns, specWins  int64
	safe, unsafe        int64
	filtered, homoInv   int64

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

// CampaignBegin resets the tracker for one campaign.
func (s *Status) CampaignBegin(app string, slots int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Field-by-field reset: a struct assignment would clobber the held
	// mutex.
	s.app = app
	s.start = time.Now()
	s.phases = nil
	s.slots = slots
	s.done = false
	s.elapsed = 0
	s.items = make(map[int]*itemState)
	s.actSum, s.predSum = 0, 0
	s.doneSecs, s.doneN = 0, 0
	s.instances, s.instDone = 0, 0
	s.executions, s.saved = 0, 0
	s.specRuns, s.specWins = 0, 0
	s.safe, s.unsafe = 0, 0
	s.filtered, s.homoInv = 0, 0
	s.workers = make(map[int]*workerState)
	s.params = make(map[string]*paramState)
}

// CampaignFinish freezes the elapsed clock and marks the run done.
func (s *Status) CampaignFinish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	s.elapsed = time.Since(s.start).Seconds()
	s.phases = nil
}

// SetSlots overrides the number of parallel execution slots the ETA
// divides remaining work across (workers × per-worker parallelism in
// dist mode).
func (s *Status) SetSlots(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots = n
}

// PhaseStart pushes a phase onto the open-phase stack.
func (s *Status) PhaseStart(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phases = append(s.phases, name)
}

// PhaseFinish pops the named phase (phases can overlap in streamed
// mode, so it removes the newest match rather than asserting LIFO).
func (s *Status) PhaseFinish(name string) {
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

// ItemQueued registers a work item awaiting execution with its
// predicted duration in seconds (0 when no profile prediction exists).
func (s *Status) ItemQueued(id int, test string, pred float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[id] = &itemState{test: test, pred: pred}
}

// ItemStart marks an item running. Re-marking a running item (a
// speculative copy dispatched alongside the primary) is a no-op.
func (s *Status) ItemStart(id int) {
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

// ItemRequeued returns a crashed/timed-out item to the queue.
func (s *Status) ItemRequeued(id int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if it := s.items[id]; it != nil && it.state == 1 {
		it.state = 0
	}
}

// ItemDone marks an item resolved and feeds the prediction calibration.
// Duplicate completions (speculation losers) are ignored.
func (s *Status) ItemDone(id int, secs float64) {
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

// AddInstances / AddInstancesDone track the instance denominator and
// numerator shown next to the item queue.
func (s *Status) AddInstances(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.instances += n
	s.mu.Unlock()
}

func (s *Status) AddInstancesDone(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.instDone += n
	s.mu.Unlock()
}

// AddExecutions counts real unit-test executions.
func (s *Status) AddExecutions(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.executions += n
	s.mu.Unlock()
}

// AddSaved counts executions avoided by the memo cache.
func (s *Status) AddSaved(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.saved += n
	s.mu.Unlock()
}

// SpeculationRun / SpeculationWin tally straggler re-issues and races
// the speculative copy won.
func (s *Status) SpeculationRun() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.specRuns++
	s.mu.Unlock()
}

func (s *Status) SpeculationWin() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.specWins++
	s.mu.Unlock()
}

// AddVerdict tallies one instance verdict by its String name.
func (s *Status) AddVerdict(verdict string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch verdict {
	case "safe":
		s.safe++
	case "unsafe":
		s.unsafe++
	case "filtered":
		s.filtered++
	case "homo-invalid":
		s.homoInv++
	}
}

// ParamVerdict records one unsafe instance verdict in the live
// parameter table.
func (s *Status) ParamVerdict(param, test string, p float64) {
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

// ParamQuarantined flags a parameter hit by the frequent-failer rule.
func (s *Status) ParamQuarantined(param string) {
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

// WorkerSpawned records a worker subprocess being started (again).
func (s *Status) WorkerSpawned(slot, pid int) {
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

// WorkerReady records the worker's init handshake completing.
func (s *Status) WorkerReady(slot, pid int) {
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

// WorkerHeartbeat records one heartbeat payload.
func (s *Status) WorkerHeartbeat(slot, pid int, inflight []int, execs int64, goroutines int, heap uint64) {
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

// WorkerItemDone bumps the per-worker completed-item tally.
func (s *Status) WorkerItemDone(slot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.worker(slot).itemsDone++
	s.mu.Unlock()
}

// WorkerStalled marks a worker silent past the stall threshold.
func (s *Status) WorkerStalled(slot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	w.state = "stalled"
	w.stalls++
}

// WorkerRecovered clears a stall once heartbeats resume.
func (s *Status) WorkerRecovered(slot int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.worker(slot); w.state == "stalled" {
		w.state = "ready"
	}
}

// WorkerGone records a worker session ending ("done" or a crash
// reason).
func (s *Status) WorkerGone(slot int, reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(slot)
	if reason == "done" {
		w.state = "done"
	} else {
		w.state = "crashed"
	}
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

	SpeculativeRuns int64 `json:"speculative_runs"`
	SpeculationWins int64 `json:"speculation_wins"`

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

// Campaign renders the live campaign snapshot. The ETA walks the item
// table: calibrated predicted seconds for queued items, calibrated
// remainder for running ones, divided by the effective slot count. When
// no predictions exist (first run, cold profile) the mean duration of
// completed items stands in.
func (s *Status) Campaign() CampaignStatus {
	if s == nil {
		return CampaignStatus{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	cs := CampaignStatus{
		App:             s.app,
		Done:            s.done,
		Instances:       s.instances,
		InstancesDone:   s.instDone,
		Executions:      s.executions,
		ExecutionsSaved: s.saved,
		SpeculativeRuns: s.specRuns,
		SpeculationWins: s.specWins,
		Safe:            s.safe,
		Unsafe:          s.unsafe,
		Filtered:        s.filtered,
		HomoInvalid:     s.homoInv,
		UnsafeParams:    len(s.params),
		Workers:         len(s.workers),
		Slots:           s.slots,
	}
	cs.Phase = "idle"
	if len(s.phases) > 0 {
		cs.Phase = s.phases[len(s.phases)-1]
	} else if s.done {
		cs.Phase = "done"
	} else if s.app != "" {
		cs.Phase = "starting"
	}
	cs.ElapsedSeconds = s.elapsed
	if !s.done && !s.start.IsZero() {
		cs.ElapsedSeconds = time.Since(s.start).Seconds()
	}
	if cs.ElapsedSeconds > 0 {
		cs.ExecRate = float64(s.executions) / cs.ElapsedSeconds
	}
	if total := s.saved + s.executions; total > 0 {
		cs.CacheHitRate = float64(s.saved) / float64(total)
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

// Workers renders the per-worker health table, sorted by slot.
func (s *Status) Workers() []WorkerStatus {
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

// Params renders the live unsafe-parameter table, sorted by name.
func (s *Status) Params() []ParamStatus {
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
