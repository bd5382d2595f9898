package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 10} {
		h.Observe(v)
	}
	// Upper bounds are inclusive, Prometheus style.
	want := []int64{2, 2, 0, 1} // <=1, <=2, <=5, +Inf
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 15 {
		t.Errorf("sum = %v, want 15", h.Sum())
	}
}

func TestConcurrentCounterIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 32, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Re-lookup each time: the hot path the runner exercises.
				r.Counter(MExecutions, "app", "minihdfs", "arm", "hetero").Inc()
				r.Histogram(MPValue, PValueBuckets, "app", "minihdfs").Observe(0.5)
				r.Gauge(MInstancesDone, "app", "minihdfs").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue(MExecutions); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram(MPValue, PValueBuckets, "app", "minihdfs").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge(MInstancesDone, "app", "minihdfs").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
}

func TestLabelOrderCanonicalized(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "b", "2", "a", "1").Add(3)
	r.Counter("x_total", "a", "1", "b", "2").Add(4)
	if got := r.CounterValue("x_total", "a", "1"); got != 7 {
		t.Errorf("label order created distinct series: sum = %d, want 7", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(MVerdicts, "app", "minihdfs", "verdict", "safe").Add(12)
	r.Counter(MVerdicts, "app", "minihdfs", "verdict", "unsafe").Add(3)
	r.Gauge(MInstancesTotal, "app", "minihdfs").Set(40)
	h := r.Histogram(MPValue, []float64{0.001, 0.5}, "app", "minihdfs")
	h.Observe(0.0001)
	h.Observe(0.25)
	h.Observe(0.9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE " + MVerdicts + " counter\n",
		MVerdicts + `{app="minihdfs",verdict="safe"} 12` + "\n",
		MVerdicts + `{app="minihdfs",verdict="unsafe"} 3` + "\n",
		"# TYPE " + MInstancesTotal + " gauge\n",
		MInstancesTotal + `{app="minihdfs"} 40` + "\n",
		"# TYPE " + MPValue + " histogram\n",
		MPValue + `_bucket{app="minihdfs",le="0.001"} 1` + "\n",
		MPValue + `_bucket{app="minihdfs",le="0.5"} 2` + "\n",
		MPValue + `_bucket{app="minihdfs",le="+Inf"} 3` + "\n",
		MPValue + `_sum{app="minihdfs"} `,
		MPValue + `_count{app="minihdfs"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Series of one family must be contiguous under a single TYPE line.
	if strings.Count(out, "# TYPE "+MVerdicts) != 1 {
		t.Errorf("family %s has more than one TYPE line", MVerdicts)
	}
}

// TestPrometheusHistogramCumulative pins the exposition contract the
// observatory relies on: _bucket lines are cumulative (each le bound
// includes all smaller buckets), +Inf equals _count, and bounds appear
// in ascending order.
func TestPrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10}, "app", "x")
	for _, v := range []float64{0.05, 0.05, 0.5, 5, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Raw per-bucket counts are 2,1,1,1; cumulative must be 2,3,4,5.
	wants := []string{
		`lat_seconds_bucket{app="x",le="0.1"} 2`,
		`lat_seconds_bucket{app="x",le="1"} 3`,
		`lat_seconds_bucket{app="x",le="10"} 4`,
		`lat_seconds_bucket{app="x",le="+Inf"} 5`,
		`lat_seconds_count{app="x"} 5`,
	}
	last := -1
	for _, want := range wants {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("exposition missing cumulative line %q in:\n%s", want, out)
		}
		if i < last {
			t.Fatalf("bucket bounds out of order: %q appears before previous line", want)
		}
		last = i
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", []float64{1, 2, 4}, "app", "x")
	// 10 obs in (0,1], 10 in (1,2]: median sits at the 1..2 boundary.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	snap := r.HistogramValue("q_seconds", "app", "x")
	if got := snap.Quantile(0.5); got < 0.9 || got > 1.1 {
		t.Errorf("p50 = %v, want ~1.0", got)
	}
	// p95 -> rank 19 of 20, inside the (1,2] bucket near its top.
	if got := snap.Quantile(0.95); got < 1.5 || got > 2.0 {
		t.Errorf("p95 = %v, want in (1.5, 2.0]", got)
	}
	// Observations past the last finite bound clamp to that bound.
	h.Observe(1e9)
	snap = r.HistogramValue("q_seconds", "app", "x")
	if got := snap.Quantile(0.999); got != 4 {
		t.Errorf("quantile in +Inf bucket = %v, want clamp to 4", got)
	}
	// Empty histogram.
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestHistogramValueMergesSeries(t *testing.T) {
	r := NewRegistry()
	r.Histogram("m_seconds", []float64{1, 2}, "app", "x", "stage", "a").Observe(0.5)
	r.Histogram("m_seconds", []float64{1, 2}, "app", "x", "stage", "b").Observe(1.5)
	snap := r.HistogramValue("m_seconds", "app", "x")
	if snap.Count != 2 || snap.Sum != 2.0 {
		t.Errorf("merged snapshot = %+v, want count 2 sum 2.0", snap)
	}
	// Filtering by the distinguishing label narrows to one series.
	one := r.HistogramValue("m_seconds", "app", "x", "stage", "a")
	if one.Count != 1 || one.Sum != 0.5 {
		t.Errorf("filtered snapshot = %+v, want count 1 sum 0.5", one)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "msg", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{msg="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong: %s", b.String())
	}
}

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.CounterAdd(MExecutions, 1, "app", "x")
	o.GaugeSet(MInstancesTotal, 5, "app", "x")
	o.GaugeAdd(MInstancesDone, 1, "app", "x")
	o.Observe(MPValue, 0.5, "app", "x")
	o.RecordTestRun("x", "t", false, 0)
	o.RecordExecution("x", "hetero", false)
	o.Event(EvCampaignStart, String("app", "x"))
	o.SetSlots(1)
	o.WorkerHeartbeat("x", 0, 1, nil, 0, 0, 0)
	o.Event(EvCampaignFinish, String("app", "x"))
	if cs := o.Campaign(); cs != (CampaignStatus{}) {
		t.Errorf("nil observer returned a snapshot: %+v", cs)
	}
	if s := o.StartSpan("x", NoSpan); s != nil {
		t.Errorf("nil observer returned a live span")
	}
	// An Observer with only metrics must tolerate nil Tracer/Progress too.
	live := New()
	live.RecordTestRun("x", "t", false, 0)
	for _, ev := range catalog(t) {
		live.Event(ev, String("app", "x"), Int("worker", 0), Int("item", 0))
	}
	live.SetSlots(1)
	live.WorkerHeartbeat("x", 0, 1, nil, 0, 0, 0)
	live.StartSpan("x", NoSpan).End()
}
