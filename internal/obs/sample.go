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

// PerfSample is one periodic snapshot of the campaign's performance
// state: runtime stats, live item/execution counters, and the full
// metrics registry. The JSONL perf series (-perf out.jsonl) is one
// sample per line.
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

// Sampler periodically snapshots an Observer into a JSONL stream. Like
// the rest of obs it is nil-safe: a nil *Sampler no-ops every method,
// which is the "-perf off" configuration.
type Sampler struct {
	o      *Observer
	period time.Duration
	epoch  time.Time

	mu    sync.Mutex
	enc   *json.Encoder // nil when no JSONL output was requested
	count int           // samples taken

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over o. w may be nil (samples are counted
// and dropped); period <= 0 means DefaultSamplePeriod. The last argument
// is ignored; it stays while bench/ passes it. Call Start to begin
// sampling and Stop to take the final sample and flush.
func NewSampler(o *Observer, period time.Duration, w io.Writer, _ int) *Sampler {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	s := &Sampler{o: o, period: period, epoch: time.Now()}
	if w != nil {
		s.enc = json.NewEncoder(w)
	}
	return s
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

// SampleNow takes one snapshot immediately: runtime stats, item table,
// registry, and appends it to the JSONL stream. Encoding errors are
// dropped — the sampler must never fail the campaign it is measuring.
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
	s.count++
	if s.enc != nil {
		_ = s.enc.Encode(sample)
	}
}

// Count reports the number of samples taken.
func (s *Sampler) Count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
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
