package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"
)

// DefaultSamplePeriod is the -perf sampler's default snapshot period.
const DefaultSamplePeriod = 500 * time.Millisecond

// DefaultSampleRing bounds the in-memory sample history (at the default
// period, ten minutes of samples).
const DefaultSampleRing = 1200

// PerfSample is one periodic snapshot of the campaign's performance
// state: runtime stats, live item/execution counters, and the full
// metrics registry. The JSONL perf series (-perf out.jsonl) is one
// sample per line; /api/perf serves the bounded in-memory ring.
type PerfSample struct {
	// TimeUS is microseconds since the sampler started.
	TimeUS int64 `json:"t_us"`

	// Go runtime stats.
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	NumGC          uint32 `json:"num_gc"`
	GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`

	// Live campaign state (zero when no status tracker is attached).
	ItemsQueued  int   `json:"items_queued"`
	ItemsRunning int   `json:"items_running"`
	ItemsDone    int   `json:"items_done"`
	Slots        int   `json:"slots"`
	Executions   int64 `json:"executions"`
	Saved        int64 `json:"executions_saved"`

	// Metrics is the registry snapshot (counters and gauges per series,
	// histograms merged per family).
	Metrics Snapshot `json:"metrics"`
}

// Utilization is the sample's instantaneous worker-slot occupancy in
// [0, 1]: items running over available slots.
func (s PerfSample) Utilization() float64 {
	if s.Slots <= 0 {
		return 0
	}
	u := float64(s.ItemsRunning) / float64(s.Slots)
	if u > 1 {
		u = 1
	}
	return u
}

// CacheHitRate is the sample's cumulative cache-hit fraction in [0, 1].
func (s PerfSample) CacheHitRate() float64 {
	total := s.Executions + s.Saved
	if total <= 0 {
		return 0
	}
	return float64(s.Saved) / float64(total)
}

// Sampler periodically snapshots an Observer into a bounded ring and an
// optional JSONL stream. Like the rest of obs it is nil-safe: a nil
// *Sampler no-ops every method, which is the "-perf off" configuration.
type Sampler struct {
	o      *Observer
	period time.Duration
	epoch  time.Time

	mu    sync.Mutex
	enc   *json.Encoder // nil when no JSONL output was requested
	ring  []PerfSample
	head  int // next write position
	count int // total samples taken (ring fill = min(count, len(ring)))

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over o. w may be nil (ring only); period
// <= 0 means DefaultSamplePeriod; ringCap <= 0 means DefaultSampleRing.
// Call Start to begin sampling and Stop to take the final sample and
// flush.
func NewSampler(o *Observer, period time.Duration, w io.Writer, ringCap int) *Sampler {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	if ringCap <= 0 {
		ringCap = DefaultSampleRing
	}
	s := &Sampler{
		o:      o,
		period: period,
		epoch:  time.Now(),
		ring:   make([]PerfSample, 0, ringCap),
	}
	if w != nil {
		s.enc = json.NewEncoder(w)
	}
	return s
}

// Period reports the sampling period (0 for a nil sampler).
func (s *Sampler) Period() time.Duration {
	if s == nil {
		return 0
	}
	return s.period
}

// Start launches the sampling goroutine. Safe to call once.
func (s *Sampler) Start() {
	if s == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.SampleNow()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop ends sampling, takes one final sample (so a short campaign still
// records its end state), and returns. Safe to call without Start and
// more than once.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	if s.stop != nil {
		select {
		case <-s.stop:
		default:
			close(s.stop)
		}
		<-s.done
		s.stop = nil
	}
	s.SampleNow()
}

// SampleNow takes one snapshot immediately: runtime stats, live status,
// registry. Appends to the ring (evicting the oldest past capacity) and
// the JSONL stream. Encoding errors are dropped — the sampler must never
// fail the campaign it is measuring.
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := PerfSample{
		TimeUS:         time.Since(s.epoch).Microseconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		NumGC:          ms.NumGC,
		GCPauseTotalNS: ms.PauseTotalNs,
	}
	if s.o != nil {
		if s.o.Metrics != nil {
			sample.Metrics = s.o.Metrics.Snapshot()
		}
		cs := s.o.Campaign()
		sample.ItemsQueued = cs.ItemsQueued
		sample.ItemsRunning = cs.ItemsRunning
		sample.ItemsDone = cs.ItemsDone
		sample.Slots = cs.Slots
		sample.Executions = cs.Executions
		sample.Saved = cs.ExecutionsSaved
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, sample)
	} else {
		s.ring[s.head] = sample
		s.head = (s.head + 1) % len(s.ring)
	}
	s.count++
	if s.enc != nil {
		_ = s.enc.Encode(sample)
	}
}

// Snapshots returns the ring's samples oldest-first (a copy).
func (s *Sampler) Snapshots() []PerfSample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PerfSample, 0, len(s.ring))
	if len(s.ring) < cap(s.ring) {
		out = append(out, s.ring...)
		return out
	}
	out = append(out, s.ring[s.head:]...)
	out = append(out, s.ring[:s.head]...)
	return out
}

// Count reports the total number of samples taken, including any the
// ring has evicted.
func (s *Sampler) Count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Current returns the most recent sample and whether one exists.
func (s *Sampler) Current() (PerfSample, bool) {
	if s == nil {
		return PerfSample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) == 0 {
		return PerfSample{}, false
	}
	// The newest sample sits just before the next write position (head
	// is 0 until the ring fills, so both regimes reduce to head-1 mod n).
	i := s.head - 1
	if i < 0 {
		i = len(s.ring) - 1
	}
	return s.ring[i], true
}

// ReadPerf parses a JSONL perf series, for the offline analyzer and
// tests.
func ReadPerf(r io.Reader) ([]PerfSample, error) {
	dec := json.NewDecoder(r)
	var out []PerfSample
	for {
		var s PerfSample
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, s)
	}
}
