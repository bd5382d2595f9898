package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Start()
	s.SampleNow()
	s.Stop()
	if s.Count() != 0 {
		t.Fatal("nil sampler reports a non-zero count")
	}
}

func TestSamplerJSONLRoundTrip(t *testing.T) {
	o := New()
	o.CounterAdd(MExecutions, 3, "app", "x", "arm", "hetero", "outcome", "pass")
	o.Observe(MItemRunSeconds, 0.2, "app", "x", "stage", "instances")
	var buf bytes.Buffer
	s := NewSampler(o, time.Hour, &buf, 8)
	s.SampleNow()
	s.SampleNow()
	got, err := ReadPerf(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d samples, want 2", len(got))
	}
	key := MExecutions + `{app="x",arm="hetero",outcome="pass"}`
	if got[1].Metrics.Counters[key] != 3 {
		t.Fatalf("counter did not round-trip: %v", got[1].Metrics.Counters)
	}
	h := got[1].Metrics.Hists[MItemRunSeconds]
	if h.Count != 1 || len(h.Buckets) != len(h.Bounds)+1 {
		t.Fatalf("histogram snapshot malformed: %+v", h)
	}
	if got[1].Goroutines <= 0 {
		t.Fatal("runtime stats missing from sample")
	}
}

// TestSamplerConcurrentRegister races snapshotting against metric
// registration and updates: the sampler must never observe a torn
// registry (run under -race).
func TestSamplerConcurrentRegister(t *testing.T) {
	o := New()
	var buf bytes.Buffer
	s := NewSampler(o, time.Hour, &buf, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.CounterAdd("c", 1, "g", fmt.Sprint(g), "i", fmt.Sprint(i%17))
				o.GaugeSet("g", int64(i), "g", fmt.Sprint(g))
				o.Observe(MItemRunSeconds, float64(i%5), "app", "x", "stage", fmt.Sprint(g))
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s.SampleNow()
	}
	wg.Wait()
	s.SampleNow()
	cur := lastSample(t, &buf)
	var total int64
	for k, v := range cur.Metrics.Counters {
		if strings.HasPrefix(k, "c{") {
			total += v
		}
	}
	if total != 4*500 {
		t.Fatalf("final sample saw %d counter increments, want %d", total, 4*500)
	}
}

func TestSamplerStartStop(t *testing.T) {
	o := New()
	s := NewSampler(o, time.Millisecond, nil, 64)
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for s.Count() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	n := s.Count()
	if n < 3 {
		t.Fatalf("sampler took only %d samples", n)
	}
	time.Sleep(5 * time.Millisecond)
	if s.Count() != n {
		t.Fatal("sampler kept sampling after Stop")
	}
	s.Stop() // idempotent, takes one more explicit final sample
	if s.Count() != n+1 {
		t.Fatalf("second Stop should add exactly one final sample: %d -> %d", n, s.Count())
	}
}

// TestSamplerStatusFields: a sample carries the item table's queued,
// running and done counts, the slot setting, and this campaign's
// executions — the registry's tallies relative to their values at its
// campaign_start.
func TestSamplerStatusFields(t *testing.T) {
	o := New()
	o.Status = NewStatus()
	o.CounterAdd(MItemExecutions, 7, "app", "minihdfs") // an earlier campaign's
	o.Event(EvCampaignStart, String("app", "minihdfs"))
	o.SetSlots(8)
	o.Event(EvItemQueued, item(1), String("test", "TestA"))
	o.Event(EvItemQueued, item(2), String("test", "TestB"))
	o.Event(EvItemDispatch, item(1))
	o.Event(EvItemComplete, String("app", "minihdfs"), item(3), Int("executions", 5), Int("executions_saved", 5))
	var buf bytes.Buffer
	NewSampler(o, time.Hour, &buf, 0).SampleNow()
	cur := lastSample(t, &buf)
	if cur.ItemsRunning != 1 || cur.ItemsQueued != 1 || cur.ItemsDone != 1 || cur.Slots != 8 {
		t.Fatalf("status fields wrong: %+v", cur)
	}
	if cur.Executions != 5 || cur.Saved != 5 {
		t.Fatalf("executions %d, saved %d; want this campaign's 5 and 5", cur.Executions, cur.Saved)
	}
	if u := cur.Utilization(); u != 1.0/8 {
		t.Fatalf("Utilization = %v, want 0.125", u)
	}
	if r := cur.CacheHitRate(); r != 0.5 {
		t.Fatalf("CacheHitRate = %v, want 0.5", r)
	}
}

// lastSample decodes a JSONL perf series and returns its newest sample.
func lastSample(t *testing.T, r io.Reader) PerfSample {
	t.Helper()
	samples, err := ReadPerf(r)
	if err != nil || len(samples) == 0 {
		t.Fatalf("perf series: %d samples, err %v", len(samples), err)
	}
	return samples[len(samples)-1]
}
